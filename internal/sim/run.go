package sim

import (
	"context"
	"fmt"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
)

// Inject appends a stimulus event to a primary-input net. Re-assertions of
// the current value are dropped first — VCD streams routinely re-dump every
// signal at a slice boundary ($dumpvars), including at the exact time of an
// earlier event — and only a genuine value change is held to the ordering
// rules: it must not fall below the net's watermark (the determined past is
// immutable) and times must strictly increase per net.
func (e *Engine) Inject(nid netlist.NetID, t int64, v logic.Value) error {
	if e.poison != nil {
		return e.poisonError("inject")
	}
	if e.lanes > 1 {
		return fmt.Errorf("sim: Inject on a lane-mode engine; use InjectLanes")
	}
	if int(nid) >= len(e.queues) || !e.p.IsPI[nid] {
		return fmt.Errorf("sim: net %d is not a primary input", nid)
	}
	q := &e.queues[nid]
	v = v.Settle()
	if q.LastVal() == v {
		return nil
	}
	if t < q.DeterminedUntil() {
		return fmt.Errorf("sim: inject at %d below watermark %d on %s", t, q.DeterminedUntil(), e.nl.Nets[nid].Name)
	}
	if lt := q.LastTime(); t <= lt {
		return fmt.Errorf("sim: inject at %d not after last event %d on %s", t, lt, e.nl.Nets[nid].Name)
	}
	q.Append(t, v)
	e.markLoads(nid, -1, true)
	return nil
}

// Advance declares every primary input determined up to the horizon
// (exclusive) — input values hold between injected events — and then runs
// propagation sweeps until the simulation converges for this input range.
// It is AdvanceCtx without cancellation.
func (e *Engine) Advance(horizon int64) error {
	return e.AdvanceCtx(context.Background(), horizon)
}

// AdvanceCtx is Advance under a context: cancellation and deadline are
// checked at every sweep boundary, so an expired context aborts the run
// within one sweep. The abort is clean — all committed state is kept, the
// engine is NOT poisoned, and a later AdvanceCtx resumes the convergence
// where this one stopped. The returned error is a *SimError wrapping
// ctx.Err().
func (e *Engine) AdvanceCtx(ctx context.Context, horizon int64) error {
	if e.poison != nil {
		return e.poisonError("advance")
	}
	if horizon > TimeInf {
		horizon = TimeInf
	}
	for nid := range e.queues {
		if !e.p.IsPI[nid] {
			continue
		}
		q := &e.queues[nid]
		w := horizon
		// Injection is append-only, so everything up to the last injected
		// event is already immutable: events beyond the horizon simply
		// extend the determined range past it.
		if lt := q.LastTime(); lt+1 > w {
			w = lt + 1
		}
		if q.DeterminedUntil() < w {
			// A pure watermark advance: any injected events already marked
			// their loads at Append time (Inject above), so this is the
			// no-new-events case — readers with unconsumed input events fall
			// back to dirty marks inside the frontier machinery.
			wOld := q.DeterminedUntil()
			q.SetDeterminedUntil(w)
			e.markLoads(netlist.NetID(nid), wOld, false)
		}
	}
	return e.converge(ctx, horizon)
}

// Finish declares the inputs frozen at their final values forever and runs
// the simulation to completion.
func (e *Engine) Finish() error { return e.Advance(TimeInf) }

// FinishCtx is Finish under a context (see AdvanceCtx).
func (e *Engine) FinishCtx(ctx context.Context) error { return e.AdvanceCtx(ctx, TimeInf) }

// converge repeats sweeps (sequential phase, then each combinational level)
// until no gate makes progress. Each sweep is one executor round over the
// precomputed level segments: the dirty filter runs inside the round after
// the per-level barrier, so a gate dirtied by level L is still picked up by
// level L+1 within the same sweep, and the worker pool is woken once per
// sweep rather than once per level.
//
// Termination needs one extra rule beyond "no progress": in designs with
// stable feedback loops (a flop whose data input equals its state stays
// determined even through an undetermined clock), watermarks creep forward
// by one arc delay per sweep forever. The creep-stop below ends a converge
// once a sweep commits no events and every gate's remaining work lies at or
// beyond the horizon: such work can only ever produce events at or beyond
// the horizon, so nothing this Advance owes its callers is still in flight.
// Quiescence must be judged against the horizon, not globally — a gate
// blocked on the next slice's clock edge would otherwise keep the stop rule
// off while a stable loop creeps forever. On the final advance (horizon
// TimeInf) the same test degenerates to full quiescence, which additionally
// proves no event can ever occur again, and every watermark jumps to
// TimeInf at once (the engine's analogue of the reference simulator's empty
// event queue).
func (e *Engine) converge(ctx context.Context, horizon int64) error {
	oblivious := e.mode == ModeManycore
	jumped := false
	// Nets staged outside the sweep loop — AdvanceCtx's primary-input
	// watermark moves — are picked up by the first sweep's segment-boundary
	// drains on a single-goroutine engine, each level just before the first
	// segment that can read it, so one commit there covers the stimulus
	// move and the in-sweep cascade alike. A pooled engine has no boundary
	// drains and drains the staging up front instead.
	if !e.front.serial {
		if _, rec := e.frontierPass(frontierAllLevels); rec != nil {
			return e.poisonFromPanic("advance", rec)
		}
	}
	for sweep := 0; sweep < e.opts.MaxSweeps; sweep++ {
		// Cancellation is honored at sweep boundaries only: a sweep is the
		// unit of consistency (events commit, dirty bits settle), so
		// stopping here leaves the engine resumable — a later AdvanceCtx
		// picks the convergence back up from the committed state.
		if err := ctx.Err(); err != nil {
			return &SimError{Op: "advance", Cause: err}
		}

		sweepStart := time.Now()
		eventsBefore := e.stats.events.Load()

		kind, expected := roundDirty, e.lastDirty
		if oblivious {
			kind, expected = roundOblivious, e.p.NumGates()
		}
		e.obs.trace.Begin(e.obs.tid, "sweep")
		levelStart := time.Now()
		processed, progress := e.exec.runSweep(e.sweepSegs, kind, expected)
		levelNS := time.Since(levelStart).Nanoseconds()
		e.stats.levelNS.Add(levelNS)
		e.obs.levelNS.Observe(levelNS)
		e.stats.sweeps.Add(1)
		e.obs.sweeps.Inc()
		if e.fusedLevs > 0 {
			// Plan-time fused levels: combinational levels this sweep crossed
			// without a barrier of their own (serial sweeps never had one;
			// pooled sweeps share the group's claim ranges).
			e.stats.levelsFused.Add(int64(e.fusedLevs))
		}
		if !oblivious {
			e.lastDirty = int(processed)
		}
		if rec := e.exec.takeFailure(); rec != nil {
			e.obs.trace.End(e.obs.tid)
			return e.poisonFromPanic("advance", rec)
		}

		// Post-sweep frontier pass: drains what the sweep's last segments
		// staged (single-goroutine sweeps already drained at every earlier
		// segment boundary; pooled sweeps staged everything, since only the
		// coordinator may drain). Fallback dirty marks are work owed to the
		// next sweep; events the pass commits count against the creep-stop's
		// events delta below.
		passDirtied, rec := e.frontierPass(frontierAllLevels)
		if rec != nil {
			e.obs.trace.End(e.obs.tid)
			return e.poisonFromPanic("advance", rec)
		}
		done := processed == 0
		if oblivious {
			done = !progress
		}
		if done && !oblivious {
			e.lastDirty = int(passDirtied)
		}

		sweepNS := time.Since(sweepStart).Nanoseconds()
		e.stats.sweepNS.Add(sweepNS)
		e.obs.sweepNS.Observe(sweepNS)
		e.obs.trace.End(e.obs.tid)
		e.obs.trace.Count("sim.events_committed", e.stats.events.Load())
		e.updateWatermarkGauge()

		if done && passDirtied == 0 {
			return nil
		}

		// A sweep that commits no events while every gate's remaining work
		// lies at or beyond the horizon can only be creeping watermarks
		// around stable loops. That creep carries no information this
		// advance owes anyone: stop. On the final advance the quiescent
		// state additionally proves no event can ever occur again, so every
		// watermark jumps to TimeInf at once.
		if !jumped && e.stats.events.Load() == eventsBefore && e.quiescentBelow(horizon) {
			if horizon < TimeInf {
				return nil
			}
			jumped = true
			for nid := range e.queues {
				if e.queues[nid].DeterminedUntil() < TimeInf {
					e.queues[nid].SetDeterminedUntil(TimeInf)
				}
			}
			// The jump just rewrote every watermark; the sample taken after
			// the sweep is stale.
			e.updateWatermarkGauge()
			return nil
		}
	}
	// Watchdog trip: the netlist is still moving after the full sweep
	// budget — almost always an oscillating loop (e.g. a ring through a
	// transparent latch). Diagnose, but do NOT poison: the committed state
	// is consistent, and the caller may raise MaxSweeps and resume.
	return &SimError{
		Op:          "advance",
		Cause:       fmt.Errorf("%w (%d sweeps)", ErrNoConvergence, e.opts.MaxSweeps),
		Oscillation: e.oscillationReport(horizon, e.opts.MaxSweeps),
	}
}

// updateWatermarkGauge samples the design's watermark frontier into the
// sim.watermark_ps gauge (and the trace counter track when tracing). Called
// at every sweep boundary so the gauge is live on the Advance/Finish run
// paths, not only at stream slice boundaries (emitSliceCounters). The
// frontier is the minimum watermark over the primary outputs — the
// externally meaningful "how far has the run got" measure — falling back to
// all nets when the netlist declares no output ports. The scan is skipped
// entirely when nothing observes it.
func (e *Engine) updateWatermarkGauge() {
	if e.obs.watermark == nil && e.obs.trace == nil {
		return
	}
	w := int64(TimeInf)
	if len(e.nl.PortsOut) > 0 {
		for _, nid := range e.nl.PortsOut {
			if d := e.queues[nid].DeterminedUntil(); d < w {
				w = d
			}
		}
	} else {
		for nid := range e.queues {
			if d := e.queues[nid].DeterminedUntil(); d < w {
				w = d
			}
		}
	}
	e.obs.watermark.Set(w)
	e.obs.trace.Count("sim.watermark_ps", w)
}

// quiescentBelow reports whether no gate can ever produce an event below
// the horizon: every unconsumed input event and uncommitted pending
// transition lies at or beyond it, and consuming work at time t only
// creates events at or after t. Gates not visited since their inputs last
// changed cannot be stale: a clean gate keeps the frontier of its last
// visit, and its inputs have not changed since.
func (e *Engine) quiescentBelow(horizon int64) bool {
	start := time.Now()
	quiet := true
	for i := range e.gate {
		if e.gate[i].futureMin < horizon {
			quiet = false
			break
		}
	}
	e.obs.quiesceNS.Observe(time.Since(start).Nanoseconds())
	return quiet
}

// Events exposes the committed event queue of a net. Callers must treat it
// as read-only and must not hold references across Checkpoint calls if they
// also lower read marks.
func (e *Engine) Events(nid netlist.NetID) *event.Queue { return &e.queues[nid] }

// Value returns the committed value of the net at the given time, or U when
// the time is at or beyond the net's watermark.
func (e *Engine) Value(nid netlist.NetID, t int64) logic.Value {
	q := &e.queues[nid]
	if t >= q.DeterminedUntil() {
		return logic.VU
	}
	// Persistent per-net readers: repeated queries at nondecreasing times
	// cost O(changes in the window) via the reader's cursor, and a cold or
	// backward query costs one page-skipping seek instead of an O(events)
	// scan from the retained start.
	if e.valRd == nil {
		e.valRd = make([]event.Reader, len(e.queues))
	}
	return e.valRd[nid].ValueAt(q, t)
}

// SetReadMark records, per net, the event index below which an external
// consumer (VCD writer, activity counter) has finished reading. Nets
// without a mark are assumed unwatched. This is how streaming drivers
// allow storage reclamation.
func (e *Engine) SetReadMark(nid netlist.NetID, idx int64) {
	e.readMarks[nid] = idx
}

// Checkpoint folds the determined-and-committed history into per-gate base
// state and releases event pages that no gate cursor or read mark still
// needs. Call between stream slices. On a poisoned engine it is a no-op
// (the state it would fold is suspect); a panic contained during the fold
// itself poisons the engine like a sweep panic would.
func (e *Engine) Checkpoint() {
	if e.poison != nil {
		return
	}
	// Lane mode never folds or trims: per-lane stream extraction reads the
	// full queue + lane-store history, and the lane base state is the
	// broadcast initial values for the whole run.
	if e.lanes > 1 {
		return
	}
	start := time.Now()
	e.obs.trace.Begin(e.obs.tid, "checkpoint")
	defer func() {
		e.obs.trace.End(e.obs.tid)
		e.obs.checkpointNS.Observe(time.Since(start).Nanoseconds())
	}()
	e.exec.runCheckpoint()
	if rec := e.exec.takeFailure(); rec != nil {
		e.poisonFromPanic("checkpoint", rec)
		return
	}
	e.stats.checkpoints.Add(1)
	e.obs.checkpoints.Inc()

	// keep[nid] = lowest event index still needed.
	keep := make([]int64, len(e.queues))
	for i := range keep {
		keep[i] = unreadMark
	}
	for s, nid := range e.p.InNet {
		if e.baseCur[s] < keep[nid] {
			keep[nid] = e.baseCur[s]
		}
	}
	for nid, idx := range e.readMarks {
		if idx < keep[nid] {
			keep[nid] = idx
		}
	}
	for nid := range e.queues {
		e.queues[nid].TrimTo(keep[nid])
	}
}

// DebugBlocked returns diagnostic lines for up to n gates whose
// determination frontier lags behind `before`, including each input net's
// watermark — the tool for investigating convergence issues.
func (e *Engine) DebugBlocked(before int64, n int) []string {
	var out []string
	for gi := range e.gate {
		g := &e.gate[gi]
		if g.detUntil.Load() >= before || len(out) >= n {
			continue
		}
		inst := &e.nl.Instances[gi]
		line := fmt.Sprintf("%s(%s) det=%d base=%d futureMin=%d ins:", inst.Name, inst.Type.Name, g.detUntil.Load(), g.baseNow, g.futureMin)
		inB := int(e.p.InOff[gi])
		for pi, nid := range e.p.GateInputs(netlist.CellID(gi)) {
			q := &e.queues[nid]
			line += fmt.Sprintf(" %s[W=%d len=%d cur=%d]", e.nl.Nets[nid].Name, q.DeterminedUntil(), q.Len(), e.baseCur[inB+pi])
		}
		out = append(out, line)
	}
	return out
}
