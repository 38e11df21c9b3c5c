package sim

import (
	"errors"
	"fmt"
	"strings"

	"gatesim/internal/netlist"
)

// This file is the engine's structured error model — the run-control layer
// that turns the three ways a long simulation can die (a panicking gate
// visit, a never-converging netlist, a caller-imposed deadline) into typed,
// inspectable errors instead of process crashes or silent spins.
//
// The failure ladder:
//
//   - Cancellation (context expired): the engine aborts at the next sweep
//     boundary and stays RESUMABLE — no committed state was lost, a later
//     AdvanceCtx continues where the run stopped.
//   - Watchdog trip (Options.MaxSweeps exhausted): the engine returns an
//     OscillationReport naming the gates/nets still moving and stays
//     resumable — raising MaxSweeps and advancing again continues the run.
//   - Contained panic (a gate visit or pool worker panicked): the sweep's
//     results are suspect, so the engine POISONS itself — every later call
//     returns ErrPoisoned wrapping the original PanicInfo. Close still
//     releases the worker pool cleanly, and LoadSnapshot (which replaces
//     all state) clears the poison.
//   - Pool infrastructure failure before any gate ran (a chaos-injected or
//     real worker death outside simulation code): the executor downgrades
//     to serial execution for the remainder of the run, re-runs the
//     interrupted sweep, and records the downgrade in Stats.Downgrades —
//     the run completes correctly, just slower.

// ErrPoisoned is the sentinel wrapped by every error returned from an
// engine that contained a panic. Match with errors.Is(err, ErrPoisoned).
var ErrPoisoned = errors.New("sim: engine poisoned by an earlier contained panic")

// ErrNoConvergence is the sentinel wrapped by the convergence watchdog when
// an Advance exhausts Options.MaxSweeps. Match with errors.Is; the
// *SimError carrying it holds the OscillationReport.
var ErrNoConvergence = errors.New("sim: no convergence within the sweep budget")

// SimError is the structured error returned by the engine's run-control
// paths (AdvanceCtx, RunStreamCtx, Inject on a poisoned engine, ...). It
// wraps the cause so errors.Is/As see through it, and carries whichever
// diagnostic payload the failure produced.
type SimError struct {
	// Op names the engine operation that failed: "advance", "stream",
	// "inject", "checkpoint", "snapshot".
	Op string
	// Cause is the underlying error: context.Canceled /
	// context.DeadlineExceeded, ErrNoConvergence, ErrPoisoned, or a
	// workpool.PanicError.
	Cause error
	// Panic is set when Cause stems from a contained panic: the recovered
	// value, the stack, and the gate/level coordinates where it fired.
	Panic *PanicInfo
	// Oscillation is set when Cause is ErrNoConvergence: the gates and nets
	// whose watermarks were still moving when the watchdog tripped.
	Oscillation *OscillationReport
}

func (e *SimError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s: %v", e.Op, e.Cause)
	if e.Panic != nil {
		fmt.Fprintf(&b, " (%s)", e.Panic.coords())
	}
	if e.Oscillation != nil {
		fmt.Fprintf(&b, "; %s", e.Oscillation.Summary())
	}
	return b.String()
}

func (e *SimError) Unwrap() error { return e.Cause }

// PanicInfo records where a contained panic fired. Gate coordinates are
// best-effort: a panic outside per-gate code (pool machinery, chaos hooks)
// has Gate = -1.
type PanicInfo struct {
	Value any    // recovered panic value
	Stack []byte // stack captured at the recovery point

	Gate     netlist.CellID // panicking gate, or -1 when unknown
	GateName string         // instance name of Gate ("" when unknown)
	CellType string         // library cell type of Gate ("" when unknown)
	// Level is the sweep segment that was executing: 0 is the sequential
	// phase, k>0 is combinational level k-1, -1 is unknown.
	Level int
}

func (p *PanicInfo) coords() string {
	if p.Gate < 0 {
		return "outside gate code"
	}
	seg := "sequential phase"
	if p.Level > 0 {
		seg = fmt.Sprintf("level %d", p.Level-1)
	} else if p.Level < 0 {
		seg = "unknown level"
	}
	return fmt.Sprintf("gate %s(%s) id=%d in %s", p.GateName, p.CellType, p.Gate, seg)
}

// OscillationReport names the simulation state still in motion when the
// convergence watchdog tripped: the gates whose remaining work lies inside
// the advance horizon (the livelocked set) and the nets they drive. A
// combinational ring routed through a transparent latch, for example, shows
// up here as the latch and inverter with watermarks far behind the horizon.
type OscillationReport struct {
	Sweeps  int   // sweeps executed before the watchdog tripped
	Horizon int64 // advance horizon of the tripped call
	Gates   []OscillatingGate
	// Truncated reports how many additional moving gates were elided from
	// Gates (the report caps itself to stay readable).
	Truncated int
}

// OscillatingGate is one gate still making in-horizon progress when the
// watchdog tripped.
type OscillatingGate struct {
	Gate      netlist.CellID
	Name      string   // instance name
	CellType  string   // library cell type
	Nets      []string // driven nets whose watermark lags the horizon
	DetUntil  int64    // determination frontier of the last visit
	FutureMin int64    // earliest pending work the gate left behind
}

// Summary renders the report as one line naming the moving gates and nets.
func (r *OscillationReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d gates still moving after %d sweeps (horizon %d):", len(r.Gates)+r.Truncated, r.Sweeps, r.Horizon)
	for i, g := range r.Gates {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s(%s)", g.Name, g.CellType)
		if len(g.Nets) > 0 {
			fmt.Fprintf(&b, " nets=%s", strings.Join(g.Nets, "|"))
		}
	}
	if r.Truncated > 0 {
		fmt.Fprintf(&b, " … and %d more", r.Truncated)
	}
	return b.String()
}

// oscReportLimit caps the gates included in an OscillationReport.
const oscReportLimit = 8

// oscillationReport scans the gate states for in-horizon pending work and
// builds the watchdog diagnosis. Called only on the MaxSweeps trip path, so
// clarity beats speed.
func (e *Engine) oscillationReport(horizon int64, sweeps int) *OscillationReport {
	rep := &OscillationReport{Sweeps: sweeps, Horizon: horizon}
	for gi := range e.gate {
		g := &e.gate[gi]
		if g.futureMin >= horizon && !e.isDirty(netlist.CellID(gi)) {
			continue
		}
		if len(rep.Gates) >= oscReportLimit {
			rep.Truncated++
			continue
		}
		inst := &e.nl.Instances[gi]
		og := OscillatingGate{
			Gate:      netlist.CellID(gi),
			Name:      inst.Name,
			CellType:  inst.Type.Name,
			DetUntil:  g.detUntil.Load(),
			FutureMin: g.futureMin,
		}
		for _, nid := range e.p.GateOutputs(netlist.CellID(gi)) {
			if nid < 0 {
				continue
			}
			if e.queues[nid].DeterminedUntil() < horizon {
				og.Nets = append(og.Nets, e.nl.Nets[nid].Name)
			}
		}
		rep.Gates = append(rep.Gates, og)
	}
	return rep
}

// poisonError returns the error every call on a poisoned engine gets: a
// SimError for the requested op whose cause chain carries both ErrPoisoned
// and the original contained panic.
func (e *Engine) poisonError(op string) error {
	return &SimError{Op: op, Cause: e.poison.Cause, Panic: e.poison.Panic}
}

// poisonFromPanic converts a contained-panic record collected from the
// executor into the engine's poison state and returns the first-report
// SimError. The sweep's partial results are suspect (a gate died mid-visit),
// so every later run-control call answers with ErrPoisoned until
// LoadSnapshot replaces the state.
func (e *Engine) poisonFromPanic(op string, rec *panicRecord) error {
	info := &PanicInfo{Value: rec.value, Stack: rec.stack, Gate: rec.gate, Level: rec.seg}
	if rec.gate >= 0 && int(rec.gate) < len(e.nl.Instances) {
		inst := &e.nl.Instances[rec.gate]
		info.GateName = inst.Name
		info.CellType = inst.Type.Name
	}
	e.poison = &SimError{
		Op:    op,
		Cause: fmt.Errorf("%w: contained panic: %v", ErrPoisoned, rec.value),
		Panic: info,
	}
	return e.poison
}
