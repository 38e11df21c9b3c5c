// Package sim implements the paper's core contribution: a delay-annotated
// gate-level simulation engine with partition-agnostic parallelism built on
// the stable-time mechanism (§III).
//
// # How it works
//
// Every net carries a queue of committed events plus a watermark
// DeterminedUntil: the net's value is known for every time strictly before
// the watermark and undetermined (U) from it onward — the paper's "stable
// time". Sequential-internal edges are removed, the remaining combinational
// graph is levelized, and each sweep processes the sequential cells followed
// by the combinational levels; gates within a level are independent and run
// in parallel (Algorithm 2).
//
// A gate visit replays its input change points in time order from its last
// checkpoint: real events (presented as R/F edge markers on edge-sensitive
// pins) and stable-time expiries (inputs turning U). Each change point is
// one extended-truth-table query. The visit stops at the first undetermined
// result; everything before it is final under *all* refinements of the U
// inputs, so output transitions up to detUntil+minArcDelay commit
// immediately and the output watermark advances — which is what lets other
// gates keep going without violating causality. Sweeps repeat until no
// watermark moves; the number of sweeps tracks the number of clock cycles in
// the streamed input window, as the paper observes.
//
// # Execution and lifecycle
//
// Parallel modes run on a persistent spin-then-park worker pool owned by
// the engine (internal/workpool): workers start lazily on the first
// parallel sweep and are reused for every subsequent one — a whole sweep is
// one pool round with a barrier between levels, so steady-state simulation
// creates no goroutines. Engine.Close parks out and joins the workers; it
// is idempotent, and a closed engine restarts its pool on the next parallel
// sweep. Stats exposes the pool's spawn/wake/park counters plus sweep and
// level wall-clock time so scheduling overhead is visible to reports.
//
// # State layout
//
// All per-gate simulation state lives in flat engine-owned arrays indexed
// by the plan's slot offsets (plan.Plan lowers the design once into CSR
// form); gateState itself holds only scalars. Engine construction from a
// prebuilt plan therefore allocates a fixed number of arrays, not O(gates)
// slices.
package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"gatesim/internal/event"
	"gatesim/internal/lane"
	"gatesim/internal/levelize"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/obs"
	"gatesim/internal/plan"
	"gatesim/internal/sdf"
	"gatesim/internal/truthtab"
)

// TimeInf is the watermark value meaning "determined forever".
const TimeInf = int64(1) << 60

// unreadMark is the readMarks value of an unwatched net: high enough never
// to constrain trimming, so Checkpoint needs no per-net branch.
const unreadMark = int64(1) << 62

// Mode selects the execution strategy.
type Mode int

const (
	// ModeAuto picks between the other modes from the design size, like the
	// paper's hybrid CPU/GPU mode (§IV-B): oblivious manycore execution for
	// large designs, dirty-set multicore for medium ones, serial for tiny.
	ModeAuto Mode = iota
	// ModeSerial processes dirty gates on the calling goroutine.
	ModeSerial
	// ModeParallel processes each level's dirty gates on a worker pool.
	ModeParallel
	// ModeManycore is the GPU-analogue: oblivious full-level scans without
	// dirty-set bookkeeping, on all available cores.
	ModeManycore
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSerial:
		return "serial"
	case ModeParallel:
		return "parallel"
	case ModeManycore:
		return "manycore"
	}
	return "mode?"
}

// Options configure an Engine.
type Options struct {
	Mode Mode
	// Threads is the worker count for ModeParallel/ModeManycore
	// (0 = GOMAXPROCS; clamped to GOMAXPROCS from above).
	Threads int
	// AutoPinThreshold is the pin count above which ModeAuto selects
	// manycore execution (the paper uses 1M pins for the GPU switch).
	AutoPinThreshold int
	// AutoSerialThreshold is the pin count below which ModeAuto stays serial.
	AutoSerialThreshold int
	// MaxSweeps is the convergence watchdog: it bounds the sweeps of one
	// Advance call (0 = a generous default). A netlist that genuinely
	// oscillates — e.g. an inverter ring routed through a transparent
	// latch — would otherwise sweep forever; on trip the engine returns a
	// *SimError wrapping ErrNoConvergence whose OscillationReport names the
	// gates and nets still moving. The engine stays resumable: raise the
	// budget and advance again to continue.
	MaxSweeps int
	// SerialBatchThreshold is the expected-work size (dirty gates for a
	// sweep) below which execution stays on the calling goroutine instead
	// of waking the worker pool (0 = a tuned default). Mostly a test knob.
	SerialBatchThreshold int
	// FaultHook, when non-nil, is installed as the worker pool's chaos hook
	// (workpool.Pool.FaultHook): it runs before every pool round slot and
	// may panic (simulated worker death) or sleep (stall). Test-only; see
	// the fault-containment tests.
	FaultHook func(item int)
	// GateHook, when non-nil, runs before every gate visit, on the worker
	// executing the visit. A panic here is indistinguishable from a panic
	// in gate-evaluation code and exercises the containment/poisoning path
	// with exact gate/level coordinates. Test-only.
	GateHook func(gate netlist.CellID)
	// Lanes is the number of independent stimulus lanes evaluated together
	// (1..lane.MaxLanes; 0 means 1). With Lanes > 1 the engine runs in lane
	// mode: every net carries a lane.Word vector alongside its event queue,
	// comb1 script visits evaluate all lanes branch-free through
	// truthtab.LanePackedLUT, and seq/ineligible cells evaluate each lane
	// through the scalar interpreter at shared change points. Lane mode
	// drives stimuli through InjectLanes/RunLaneStream (the scalar
	// Inject/RunStream entry points reject), and never checkpoints or
	// snapshots (event history is retained for per-lane stream extraction).
	// The frontier plane participates: quiet watermark advances run the
	// lane-word idle kernel from frontier commits, lane-mask-aware. Lanes =
	// 1 is today's scalar engine, bit-exact and unchanged.
	Lanes int
	// Metrics, when non-nil, receives the engine's obs counters and phase
	// histograms (sim.* and pool.* names). Nil keeps every record site on
	// the ~1 ns nil-instrument path (see internal/obs).
	Metrics *obs.Registry
	// Trace, when non-nil, records a span per sweep, level segment, pool
	// round, checkpoint and streamed slice, plus counter tracks, in
	// Chrome/Perfetto trace-event form.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if maxProcs := runtime.GOMAXPROCS(0); o.Threads <= 0 || o.Threads > maxProcs {
		o.Threads = maxProcs
	}
	if o.AutoPinThreshold <= 0 {
		o.AutoPinThreshold = 1_000_000
	}
	if o.AutoSerialThreshold <= 0 {
		o.AutoSerialThreshold = 2_000
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 1 << 30
	}
	if o.SerialBatchThreshold <= 0 {
		o.SerialBatchThreshold = defaultSerialBatchThreshold
	}
	if o.Lanes <= 0 {
		o.Lanes = 1
	}
	return o
}

// Stats are cumulative execution counters. The Pool* group exposes the
// scheduling overhead of the persistent worker pool so harness reports can
// show dispatch cost alongside simulation work.
type Stats struct {
	Sweeps          int64 // level sweeps executed
	Visits          int64 // gate visits
	Queries         int64 // truth-table queries
	EventsCommitted int64 // events appended to net queues
	Checkpoints     int64 // slice-boundary base consolidations

	// VisitsWatermarkOnly counts the visits that committed no events: work
	// whose only possible effect was advancing watermarks (or nothing at
	// all). FrontierCommits counts staged-net watermark publishes the
	// frontier pass drained — each one delivered a net's coalesced advance
	// to its whole reader cloud in one scan (see frontier.go) — and
	// QueriesSaved counts LUT probes the idle walks skipped because a
	// memoized determinedness mask already decided the expiry.
	VisitsWatermarkOnly int64
	FrontierCommits     int64
	QueriesSaved        int64

	// VisitsLane counts lane-mode gate visits: each one evaluated every
	// active stimulus lane, so the per-lane visit equivalent is
	// VisitsLane × Options.Lanes. Zero in scalar mode.
	VisitsLane int64

	// VisitsByKernel/QueriesByKernel split Visits/Queries by the kernel
	// class that served them (index by truthtab.Class).
	VisitsByKernel  [truthtab.NumClasses]int64
	QueriesByKernel [truthtab.NumClasses]int64

	PoolSpawned int64 // worker goroutines ever created by the pool
	PoolRounds  int64 // parallel rounds dispatched to the pool
	PoolWakes   int64 // workers woken from a parked state
	PoolParks   int64 // workers that gave up spinning and parked
	LevelsFused int64 // plan-time fused levels crossed without a barrier, summed per sweep
	SweepNS     int64 // wall time inside convergence sweeps
	LevelNS     int64 // wall time inside level-execution rounds

	// ScriptSegments is the number of compiled segment scripts in the
	// sweep schedule.
	// SegmentsSkipped counts segment scans a sweep skipped outright because
	// the segment's dirty-bitset population was zero — the clean-segment
	// fast path that makes quiescent levels cost one load.
	ScriptSegments  int64
	SegmentsSkipped int64

	// Downgrades counts pool→serial degradations: after a worker died
	// outside gate code, the executor abandoned the pool and finished the
	// run serially (graceful degradation instead of a crash or a wrong
	// answer). At most 1 per engine.
	Downgrades int64
}

// engineCounters are the cumulative counters in atomic form. Writers are
// coordinator-side only, but Stats() may be polled from any goroutine (the
// obs debug endpoint does so mid-run), so every field is an atomic rather
// than a plain int64 guarded by nothing.
type engineCounters struct {
	sweeps          atomic.Int64
	visits          atomic.Int64
	queries         atomic.Int64
	visitsBy        [truthtab.NumClasses]atomic.Int64
	queriesBy       [truthtab.NumClasses]atomic.Int64
	visitsWMOnly    atomic.Int64
	visitsLane      atomic.Int64
	frontierCommits atomic.Int64
	queriesSaved    atomic.Int64
	events          atomic.Int64
	checkpoints     atomic.Int64
	levelsFused     atomic.Int64
	segsSkipped     atomic.Int64
	sweepNS         atomic.Int64
	levelNS         atomic.Int64
	downgrades      atomic.Int64
}

// engineObs bundles the engine's observability instruments. It is built
// unconditionally: nil Options.Metrics/Trace yield nil instruments, so the
// record sites below never branch on "is observability on".
type engineObs struct {
	trace *obs.Trace
	tid   int // the engine's coordinator track

	sweeps          *obs.Counter
	events          *obs.Counter
	checkpoints     *obs.Counter
	downgrades      *obs.Counter
	segsSkipped     *obs.Counter
	visitsWMOnly    *obs.Counter
	visitsLane      *obs.Counter
	frontierCommits *obs.Counter
	queriesSaved    *obs.Counter
	lanesActive     *obs.Gauge
	visitsBy        [truthtab.NumClasses]*obs.Counter
	queriesBy       [truthtab.NumClasses]*obs.Counter
	sweepNS         *obs.Histogram
	levelNS         *obs.Histogram
	checkpointNS    *obs.Histogram
	sliceNS         *obs.Histogram
	quiesceNS       *obs.Histogram
	watermark       *obs.Gauge
}

func newEngineObs(o Options) engineObs {
	m := o.Metrics
	eo := engineObs{
		trace:           o.Trace,
		tid:             o.Trace.Thread("sim.engine"),
		sweeps:          m.Counter("sim.sweeps"),
		events:          m.Counter("sim.events_committed"),
		checkpoints:     m.Counter("sim.checkpoints"),
		downgrades:      m.Counter("sim.downgrades"),
		segsSkipped:     m.Counter("sim.segments_skipped"),
		visitsWMOnly:    m.Counter("sim.visits_watermark_only"),
		visitsLane:      m.Counter("sim.visits_lane"),
		frontierCommits: m.Counter("sim.frontier_commits"),
		queriesSaved:    m.Counter("sim.queries_saved"),
		lanesActive:     m.Gauge("sim.lanes_active"),
		sweepNS:         m.Histogram("sim.sweep_ns"),
		levelNS:         m.Histogram("sim.level_ns"),
		checkpointNS:    m.Histogram("sim.checkpoint_ns"),
		sliceNS:         m.Histogram("sim.slice_ns"),
		quiesceNS:       m.Histogram("sim.quiesce_ns"),
		watermark:       m.Gauge("sim.watermark_ps"),
	}
	for c := truthtab.Class(0); c < truthtab.NumClasses; c++ {
		eo.visitsBy[c] = m.Counter("sim.visits_by_kernel." + c.String())
		eo.queriesBy[c] = m.Counter("sim.queries_by_kernel." + c.String())
	}
	return eo
}

// Engine simulates one netlist.
type Engine struct {
	p    *plan.Plan
	nl   *netlist.Netlist
	opts Options
	mode Mode // resolved mode (Auto replaced)

	pool   event.Pool
	queues []event.Queue // one per net, indexed by NetID

	gate []gateState

	// Slot arrays in the plan's pin layouts (see plan.Plan). inQ/outQ cache
	// the queue of the slot's net (nil for unconnected outputs).
	inQ  []*event.Queue
	outQ []*event.Queue

	// Base checkpoint per slot: events with queue index < baseCur[s] are
	// folded into baseVals/baseStates/semBase.
	baseCur    []int64
	baseVals   []logic.Value
	baseStates []logic.Value
	semBase    []logic.Value // semantic (pre-delay) output values at baseNow

	// Committed output waveform tracking per output slot.
	lastCommitted  []logic.Value
	committedUntil []int64

	// Soft-resume snapshots per slot (see gateState).
	softCur    []int64
	softVals   []logic.Value
	softStates []logic.Value
	softSem    []logic.Value
	softPend   [][]event.Event

	// readMarks[nid] is the event index below which an external consumer has
	// finished reading; unwatched nets hold unreadMark.
	readMarks []int64

	// valRd holds one persistent event reader per net for Value queries,
	// allocated on the first Value call (debug/test surface, usually unused).
	valRd []event.Reader

	// Compiled-script execution state. dirtyBits is the plan-wide dirty
	// bitset (plan.BitOf layout, segments word-aligned); segDirty[s] is
	// script s's set-bit population, kept by markDirty (increment on a 0→1
	// bit transition) and the replay loops (decrement by the popcount of
	// each word they swap out), so a clean segment is skipped on one
	// counter load without touching its words.
	dirtyBits []uint64
	segDirty  []int64

	// front is the per-net frontier worklist (see frontier.go).
	front frontierState

	// Lane mode (Options.Lanes > 1). Each net's laneStores entry parallels
	// its event queue index-for-index: entry i holds the changed-lane mask
	// and full merged lane word of the queue's event i (lane mode never
	// trims, so indices coincide from zero). The slot arrays are lane-word
	// twins of the scalar base/soft checkpoint arrays; the base never folds
	// forward (lane mode skips Checkpoint), so laneBase* stay at their
	// broadcast initial values. All empty/zero in scalar mode.
	lanes             int
	laneMask          uint32
	laneStores        []lane.Store // per net
	laneLast          []lane.Word  // per net: current word after all appends (PI injection)
	inStore           []*lane.Store
	outStore          []*lane.Store
	laneBaseVals      []lane.Word
	laneSemBase       []lane.Word
	laneLastCommitted []lane.Word
	laneBaseStates    []lane.Word
	laneSoftVals      []lane.Word
	laneSoftSem       []lane.Word
	laneSoftStates    []lane.Word
	laneSoftPend      [][]event.Event // [outSlot*lanes + lane]

	exec       *executor
	sweepSegs  []execSeg // sequential phase + each comb level's kernel buckets
	scriptSegs int       // compiled scripts in the schedule (Stats.ScriptSegments)
	fusedLevs  int       // plan-time fused levels per sweep (Stats.LevelsFused)
	lastDirty  int       // dirty-gate count of the previous sweep
	stats      engineCounters
	obs        engineObs

	// poison is set when a sweep contained a panic: the committed state may
	// be inconsistent, so every later run-control call returns a SimError
	// wrapping ErrPoisoned and the original cause. Close still releases the
	// pool; LoadSnapshot (a full state replacement) clears it.
	poison *SimError
}

// New lowers the design and builds an engine. The compiled library must
// cover every cell type in the netlist; delays must come from sdf.Apply or
// sdf.Uniform on the same netlist. To share the lowering across simulators
// or runs, use plan.Build + NewFromPlan.
func New(nl *netlist.Netlist, lib *truthtab.CompiledLibrary, delays *sdf.Delays, opts Options) (*Engine, error) {
	p, err := plan.Build(nl, lib, delays)
	if err != nil {
		return nil, err
	}
	return NewFromPlan(p, opts)
}

// NewFromPlan builds an engine over a prebuilt plan. The plan is read-only
// and may be shared with other simulators concurrently.
func NewFromPlan(p *plan.Plan, opts Options) (*Engine, error) {
	e := &Engine{p: p, nl: p.Netlist, opts: opts.withDefaults()}
	if e.opts.Lanes > lane.MaxLanes {
		return nil, fmt.Errorf("sim: Lanes %d exceeds lane.MaxLanes %d", e.opts.Lanes, lane.MaxLanes)
	}
	e.lanes = e.opts.Lanes
	e.laneMask = uint32(1)<<uint(e.lanes) - 1
	e.obs = newEngineObs(e.opts)
	e.obs.lanesActive.Set(int64(e.lanes))
	e.mode = e.opts.Mode
	if e.mode == ModeAuto {
		switch {
		case p.Pins >= e.opts.AutoPinThreshold:
			e.mode = ModeManycore
		case p.Pins <= e.opts.AutoSerialThreshold:
			e.mode = ModeSerial
		default:
			e.mode = ModeParallel
		}
	}

	// Net queues start at the fixpoint values.
	e.queues = make([]event.Queue, p.NumNets())
	for n := range e.queues {
		e.queues[n].Init(&e.pool, p.NetInit[n])
	}

	nIn, nOut := len(p.InNet), len(p.OutNet)
	e.inQ = make([]*event.Queue, nIn)
	for s, nid := range p.InNet {
		e.inQ[s] = &e.queues[nid]
	}
	e.outQ = make([]*event.Queue, nOut)
	for s, nid := range p.OutNet {
		if nid >= 0 {
			e.outQ[s] = &e.queues[nid]
		}
	}

	e.baseCur = make([]int64, nIn)
	e.baseVals = append([]logic.Value(nil), p.InInit...)
	e.baseStates = append([]logic.Value(nil), p.StateInit...)
	e.semBase = append([]logic.Value(nil), p.OutInit...)
	e.lastCommitted = append([]logic.Value(nil), p.OutInit...)
	e.committedUntil = make([]int64, nOut)
	for s := range e.committedUntil {
		e.committedUntil[s] = -TimeInf
	}
	e.softCur = make([]int64, nIn)
	e.softVals = make([]logic.Value, nIn)
	e.softStates = make([]logic.Value, len(p.StateInit))
	e.softSem = make([]logic.Value, nOut)
	e.softPend = make([][]event.Event, nOut)
	e.readMarks = make([]int64, p.NumNets())
	for n := range e.readMarks {
		e.readMarks[n] = unreadMark
	}

	e.gate = make([]gateState, p.NumGates())
	for i := range e.gate {
		e.gate[i].baseNow = -TimeInf
	}

	if e.lanes > 1 {
		// Lane twins of the slot arrays, every lane starting at the scalar
		// initial value. The per-net stores start empty, aligned with the
		// (untrimmed, unrestored) queues at index zero.
		e.laneStores = make([]lane.Store, p.NumNets())
		e.laneLast = make([]lane.Word, p.NumNets())
		for n := range e.laneLast {
			e.laneLast[n] = lane.Broadcast(p.NetInit[n])
		}
		e.inStore = make([]*lane.Store, nIn)
		for s, nid := range p.InNet {
			e.inStore[s] = &e.laneStores[nid]
		}
		e.outStore = make([]*lane.Store, nOut)
		for s, nid := range p.OutNet {
			if nid >= 0 {
				e.outStore[s] = &e.laneStores[nid]
			}
		}
		e.laneBaseVals = make([]lane.Word, nIn)
		for s, v := range p.InInit {
			e.laneBaseVals[s] = lane.Broadcast(v)
		}
		e.laneSemBase = make([]lane.Word, nOut)
		e.laneLastCommitted = make([]lane.Word, nOut)
		for s, v := range p.OutInit {
			e.laneSemBase[s] = lane.Broadcast(v)
			e.laneLastCommitted[s] = lane.Broadcast(v)
		}
		e.laneBaseStates = make([]lane.Word, len(p.StateInit))
		for s, v := range p.StateInit {
			e.laneBaseStates[s] = lane.Broadcast(v)
		}
		e.laneSoftVals = make([]lane.Word, nIn)
		e.laneSoftSem = make([]lane.Word, nOut)
		e.laneSoftStates = make([]lane.Word, len(p.StateInit))
		e.laneSoftPend = make([][]event.Event, nOut*e.lanes)
	}

	// Each segment is replayed from its compiled script over the dirty
	// bitset.
	e.dirtyBits = make([]uint64, p.ScriptWords)
	e.segDirty = make([]int64, len(p.Scripts))
	e.sweepSegs = make([]execSeg, len(p.Scripts))
	for i := range p.Scripts {
		s := &p.Scripts[i]
		e.sweepSegs[i] = execSeg{
			script: s, dirty: &e.segDirty[i],
			kernel: s.Kernel, level: s.Level, barrier: s.Barrier,
			items: int64(s.Words()),
		}
	}
	e.scriptSegs = len(p.Scripts)
	e.fusedLevs = p.FusedLevels
	e.front = newFrontierState(p)
	// Everything starts dirty so the first Advance initializes constant
	// cones (tie cells, reset trees) even before any stimulus.
	e.markAllDirty()
	e.exec = newExecutor(e)
	e.front.serial = e.exec.threads == 1
	e.lastDirty = p.NumGates() // everything starts dirty
	return e, nil
}

// markAllDirty marks every gate for the next sweep: every valid dirty bit,
// with the per-segment populations to match. Stray bits above a script's
// op count stay zero so a word swap never yields an out-of-range op index.
func (e *Engine) markAllDirty() {
	p := e.p
	for i := range p.Scripts {
		s := &p.Scripts[i]
		base := int(s.BitOff) >> 6
		n := len(s.Ops)
		for w := 0; n > 0; w++ {
			if n >= 64 {
				atomic.StoreUint64(&e.dirtyBits[base+w], ^uint64(0))
				n -= 64
			} else {
				atomic.StoreUint64(&e.dirtyBits[base+w], uint64(1)<<uint(n)-1)
				n = 0
			}
		}
		atomic.StoreInt64(&e.segDirty[i], int64(len(s.Ops)))
	}
}

// Close parks out and joins the engine's worker-pool goroutines. It is
// idempotent and must not overlap Advance/Finish/Checkpoint. The engine
// stays usable afterwards: the next parallel sweep simply restarts the
// pool. Long-lived processes that build many engines should Close each one
// when done with it.
func (e *Engine) Close() { e.exec.pool.Close() }

// Mode returns the resolved execution mode.
func (e *Engine) Mode() Mode { return e.mode }

// Err reports the engine's poison state: nil while the engine is healthy,
// or the *SimError describing the contained panic that poisoned it. A
// poisoned engine rejects every run-control call with an error wrapping
// ErrPoisoned; Close remains safe, and LoadSnapshot clears the poison.
func (e *Engine) Err() error {
	if e.poison == nil {
		return nil
	}
	return e.poison
}

// Stats returns a snapshot of the cumulative counters, including the worker
// pool's scheduling counters. It is safe to call from any goroutine while a
// run is in flight — the obs debug endpoint polls it live.
func (e *Engine) Stats() Stats {
	ps := e.exec.pool.Stats()
	st := Stats{
		Sweeps:              e.stats.sweeps.Load(),
		Visits:              e.stats.visits.Load(),
		Queries:             e.stats.queries.Load(),
		EventsCommitted:     e.stats.events.Load(),
		Checkpoints:         e.stats.checkpoints.Load(),
		VisitsWatermarkOnly: e.stats.visitsWMOnly.Load(),
		VisitsLane:          e.stats.visitsLane.Load(),
		FrontierCommits:     e.stats.frontierCommits.Load(),
		QueriesSaved:        e.stats.queriesSaved.Load(),
		PoolSpawned:         ps.Spawned,
		PoolRounds:          ps.Rounds,
		PoolWakes:           ps.Wakes,
		PoolParks:           ps.Parks,
		LevelsFused:         e.stats.levelsFused.Load(),
		SweepNS:             e.stats.sweepNS.Load(),
		LevelNS:             e.stats.levelNS.Load(),
		ScriptSegments:      int64(e.scriptSegs),
		SegmentsSkipped:     e.stats.segsSkipped.Load(),
		Downgrades:          e.stats.downgrades.Load(),
	}
	for c := range st.VisitsByKernel {
		st.VisitsByKernel[c] = e.stats.visitsBy[c].Load()
		st.QueriesByKernel[c] = e.stats.queriesBy[c].Load()
	}
	return st
}

// Netlist returns the simulated netlist.
func (e *Engine) Netlist() *netlist.Netlist { return e.nl }

// Plan returns the shared lowered design.
func (e *Engine) Plan() *plan.Plan { return e.p }

// Levelization returns the execution plan (for diagnostics and tools).
func (e *Engine) Levelization() *levelize.Levelization { return e.p.Lev }

// PoolPages reports how many event pages were ever allocated.
func (e *Engine) PoolPages() int64 { return e.pool.AllocatedPages() }
