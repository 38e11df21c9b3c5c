package sim

import (
	mathbits "math/bits"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gatesim/internal/netlist"
	"gatesim/internal/plan"
	"gatesim/internal/truthtab"
	"gatesim/internal/workpool"
)

// executor runs the per-sweep level segments, serially or on a persistent
// spin-then-park worker pool (internal/workpool). One whole sweep — the
// sequential phase plus every combinational level — is dispatched as a
// single pool round whose workers claim chunks off per-segment atomic
// indices; consecutive barrier groups are separated by a completion barrier
// (segDone of every segment in the previous group must reach its item count
// before anyone claims in the new group), so level ordering is preserved
// while the pool is woken once per sweep instead of once per level. The
// dirty-set filter runs inside the round, after the barrier, which keeps
// the in-sweep cascade: a gate dirtied by level L is picked up by level
// L+1's scan in the same sweep.
//
// Sweep segments are compiled (execSeg): they claim dirty bitset words and
// replay the plan's flat script for each set bit — one atomic swap
// test-and-clears 64 gates, and a segment whose dirty population reads zero
// is skipped without touching its words at all. Checkpoint rounds run one
// gate-list segment over every gate instead.
//
// Gates within a segment never share output nets or write-visible state, so
// cross-worker traffic is the claim indices, the idempotent dirty marks,
// and the release/acquire-published event queues.
//
// Fault tolerance: every chunk executes under recover, and the deferred
// completion accounting runs whether or not the chunk panicked, so the
// inter-segment barrier can never deadlock on a dying worker. A panic
// inside gate code is recorded (with gate and level coordinates) in
// `failed` — the engine poisons itself on it. A panic outside gate code
// (pool machinery, chaos FaultHook) surfaces as a workpool.PanicError with
// Started=false; since no gate work was lost, the executor downgrades to
// serial execution for the remainder of the run and re-runs the sweep.
type executor struct {
	e         *Engine
	threads   int
	threshold int
	scratches []*scratch
	pool      *workpool.Pool
	roundFn   func(int) // persistent closure handed to the pool each round

	segs     []execSeg
	segIdx   []int64 // atomic: next unclaimed item offset within segs[s]
	segDone  []int64 // atomic: completed item count within segs[s]
	waitFrom []int   // coordinator-written: first segment of the barrier's wait range, -1 = no wait
	kind     roundKind
	claimed  atomic.Int64 // dirty gates claimed this round
	progress atomic.Bool

	// failed holds the first contained gate-code panic; once set, workers
	// stop executing gates (they only drain claim counters) and the engine
	// poisons itself when the sweep returns.
	failed atomic.Pointer[panicRecord]
	// degraded is set after a pool infrastructure failure: the executor
	// abandons the pool and runs every remaining sweep on the calling
	// goroutine. Read/written by the coordinator only.
	degraded bool

	allGates []netlist.CellID // identity work list for checkpoint rounds
	ckptSegs []execSeg        // single-segment schedule over allGates
}

// execSeg is one schedulable segment of a round. Exactly one of gates and
// script is set: script segments (every sweep segment) are claimed in
// dirty-bitset words and replayed from the compiled instruction array; the
// checkpoint round's gate-list segment is claimed in gate chunks. items is
// the claim-unit count — words or gates — that segIdx/segDone run over.
type execSeg struct {
	gates   []netlist.CellID
	script  *plan.Script
	dirty   *int64 // the segment's dirty population (script segments)
	kernel  truthtab.Class
	level   int // -1 for the sequential phase
	barrier bool
	items   int64
}

// panicRecord is the containment record for a panic inside per-gate
// simulation code, with the coordinates the recovery point knew. seg keeps
// PanicInfo.Level's convention — 0 = sequential phase, k>0 = combinational
// level k-1 — independent of how many kernel buckets a level was split into.
type panicRecord struct {
	value any
	stack []byte
	gate  netlist.CellID // gate being visited, -1 when outside gate code
	seg   int            // segment level coordinate (0 = sequential phase), -1 unknown
}

// roundKind selects what a sweep round does with each gate it scans.
type roundKind int

const (
	// roundDirty visits only gates whose dirty bit it wins (bitset word
	// swap).
	roundDirty roundKind = iota
	// roundOblivious visits every gate (the manycore full-level scan).
	roundOblivious
	// roundCheckpoint folds every gate's base state (no visits).
	roundCheckpoint
)

// defaultSerialBatchThreshold is the expected work size below which waking
// the pool costs more than it saves.
const defaultSerialBatchThreshold = 192

// workChunk is the number of gates a worker claims per atomic increment on
// a gate-list segment.
const workChunk = 64

// scriptWordChunk is the number of dirty-bitset words a worker claims per
// atomic increment on a script segment. Each word covers 64 gates, so the
// claim granularity is coarser than workChunk while sparse words cost only
// a swap apiece.
const scriptWordChunk = 4

// Barrier wait tuning: a worker blocked on a predecessor segment yields the
// processor for a bounded number of iterations (the common case — the
// barrier closes within a few scheduling quanta), then falls back to
// sleeping with exponential backoff so a long wait burns no CPU.
const (
	barrierSpinIters  = 128
	barrierBackoffMin = time.Microsecond
	barrierBackoffMax = 128 * time.Microsecond
)

func newExecutor(e *Engine) *executor {
	threads := 1
	if e.mode == ModeParallel || e.mode == ModeManycore {
		threads = e.opts.Threads
	}
	x := &executor{e: e, threads: threads, threshold: e.opts.SerialBatchThreshold}
	x.scratches = make([]*scratch, threads)
	for i := range x.scratches {
		x.scratches[i] = newScratch(e)
	}
	x.pool = workpool.New(threads)
	x.pool.FaultHook = e.opts.FaultHook
	m := e.opts.Metrics
	x.pool.Observe(m.Counter("pool.spawned"), m.Counter("pool.rounds"),
		m.Counter("pool.wakes"), m.Counter("pool.parks"))
	x.roundFn = x.drainRound
	x.allGates = make([]netlist.CellID, e.p.NumGates())
	for i := range x.allGates {
		x.allGates[i] = netlist.CellID(i)
	}
	x.ckptSegs = []execSeg{{gates: x.allGates, level: -1, barrier: true, items: int64(len(x.allGates))}}
	return x
}

// runSweep executes the segments in order with a barrier between
// consecutive barrier groups. expected is the caller's estimate of the work
// (dirty gates for roundDirty, total gates otherwise); sweeps expected to
// be small run on the calling goroutine. Returns the number of dirty gates
// claimed and whether any visit made progress; a contained gate panic is
// left in x.failed for the engine to collect.
func (x *executor) runSweep(segs []execSeg, kind roundKind, expected int) (int64, bool) {
	if x.threads == 1 || x.degraded || expected < x.threshold {
		return x.runSweepSerial(segs, kind)
	}

	x.segs = segs
	if cap(x.segIdx) < len(segs) {
		x.segIdx = make([]int64, len(segs))
		x.segDone = make([]int64, len(segs))
		x.waitFrom = make([]int, len(segs))
	}
	x.segIdx = x.segIdx[:len(segs)]
	x.segDone = x.segDone[:len(segs)]
	x.waitFrom = x.waitFrom[:len(segs)]
	groupStart := 0
	for i := range x.segIdx {
		x.segIdx[i] = 0
		x.segDone[i] = 0
		// A barrier segment opens a new group and waits for the whole
		// previous group [groupStart, i); same-group successors (a level's
		// later kernel buckets, or a whole level fused at plan time) are
		// independent of it and don't wait. The wait range never needs to
		// reach further back: work in the previous group only started after
		// its own barrier saw everything before groupStart complete.
		x.waitFrom[i] = -1
		if i > 0 && segs[i].barrier {
			x.waitFrom[i] = groupStart
		}
		if segs[i].barrier {
			groupStart = i
		}
	}
	x.kind = kind
	x.claimed.Store(0)
	x.progress.Store(false)
	x.e.obs.trace.Begin(x.e.obs.tid, "pool-round")
	err := x.pool.Run(x.threads, x.roundFn)
	x.e.obs.trace.End(x.e.obs.tid)
	x.segs = nil
	x.mergeStats()
	if err != nil && x.failed.Load() == nil {
		pe := err.(*workpool.PanicError)
		if pe.Started {
			// The panic unwound drainRound outside the per-chunk recover —
			// not per-gate code, but the round's completion accounting may
			// be suspect. Treat it like a gate panic: poison.
			x.failed.CompareAndSwap(nil, &panicRecord{value: pe.Value, stack: pe.Stack, gate: -1, seg: -1})
		} else {
			// The worker died before its round slot ran any gate code (chaos
			// hook or spawn-path failure). No gate work is lost — surviving
			// slots claim every chunk — but the pool is no longer trusted:
			// downgrade to serial for the rest of this engine's life and
			// redo the sweep on the calling goroutine. Visits are idempotent
			// and the dirty marks still flag exactly the unprocessed gates,
			// so the serial pass completes whatever the round left behind.
			x.degraded = true
			x.e.stats.downgrades.Add(1)
			x.e.obs.downgrades.Inc()
			x.pool.Close()
			sc, sp := x.runSweepSerial(segs, kind)
			return x.claimed.Load() + sc, x.progress.Load() || sp
		}
	}
	return x.claimed.Load(), x.progress.Load()
}

// runSweepSerial is the single-goroutine sweep path, also used as the
// degradation target after a pool failure. Each segment runs under the same
// panic containment as the pooled chunks; on a contained panic the rest of
// the sweep is abandoned (the engine poisons itself anyway). Script
// segments whose dirty population is zero are skipped on that single load.
func (x *executor) runSweepSerial(segs []execSeg, kind roundKind) (int64, bool) {
	sc := x.scratches[0]
	var claimed int64
	progress := false
	for si := range segs {
		seg := &segs[si]
		// Boundary frontier drain: before scanning a segment, settle every
		// staged watermark move at the net levels its gates can read
		// (NetLevel <= gate level), so the sweep's in-level cascade works
		// through walks exactly as it did through visits; deeper stagings
		// stay bucketed, batching later moves into one walk per gate per
		// sweep. The sequential segment (level -1) drains with bound 0:
		// primary-input moves staged by AdvanceCtx and flop-output moves
		// from the previous sweep live in net bucket 0, and their seq
		// readers must be dirty before the seq scan, not a sweep later.
		// Single-goroutine rounds only — this is the coordinator.
		if kind == roundDirty && x.e.front.staged > 0 {
			bound := seg.level
			if bound < 0 {
				bound = 0
			}
			if _, rec := x.e.frontierPass(bound); rec != nil {
				x.failed.CompareAndSwap(nil, rec)
				break
			}
		}
		if seg.script != nil && kind == roundDirty && atomic.LoadInt64(seg.dirty) == 0 {
			x.e.stats.segsSkipped.Add(1)
			x.e.obs.segsSkipped.Inc()
			continue
		}
		// Per-segment spans exist only on this path; the pooled path fuses
		// all levels into one round (see drainRound) and gets a pool-round
		// span. Names are constant strings — the disabled-obs zero-alloc
		// guard covers this loop.
		name := "level"
		if seg.level < 0 && kind != roundCheckpoint {
			name = "seq-phase"
		} else if seg.kernel == truthtab.ClassComb1 {
			name = "level.comb1"
		}
		x.e.obs.trace.Begin(x.e.obs.tid, name)
		var ok bool
		if seg.script != nil {
			ok = x.runScriptChunk(kind, seg.level+1, seg, 0, seg.items, sc, &claimed, &progress)
		} else {
			ok = x.runChunk(seg.level+1, seg.gates, sc)
		}
		x.e.obs.trace.End(x.e.obs.tid)
		if !ok {
			break
		}
	}
	x.mergeStats()
	return claimed, progress
}

// drainRound is one worker's share of a pool round: for each segment, wait
// for the previous barrier group to complete, then claim and process
// chunks. The barrier waits on completed work, not on worker arrival, so a
// worker that serves several round slots back-to-back (the pool hands slots
// out greedily) can always make progress by finishing the pending chunks
// itself. Chunk completion accounting is deferred inside
// runSegChunkCounted, so even a panicking chunk advances segDone and the
// barrier never deadlocks.
//
// A clean script segment (dirty population zero) is retired by claiming all
// of its remaining words in one grab and crediting them unprocessed. The
// credit is sound — "no more work will happen here this round" — and a
// concurrent mark that slips past the zero check keeps its bit (word swaps
// only happen on the processing path), so the segment scans next sweep.
func (x *executor) drainRound(w int) {
	sc := x.scratches[w]
	var claimed int64
	progress := false
	for s := range x.segs {
		if from := x.waitFrom[s]; from >= 0 {
			x.waitSegs(from, s)
		}
		seg := &x.segs[s]
		n := seg.items
		chunk := int64(workChunk)
		if seg.script != nil {
			chunk = scriptWordChunk
			if x.kind == roundDirty && atomic.LoadInt64(seg.dirty) == 0 {
				lo := atomic.AddInt64(&x.segIdx[s], n) - n
				if lo < n {
					atomic.AddInt64(&x.segDone[s], n-lo)
					if lo == 0 {
						// Sole claimer: count the skip once per segment.
						x.e.stats.segsSkipped.Add(1)
						x.e.obs.segsSkipped.Inc()
					}
				}
				continue
			}
		}
		for {
			lo := atomic.AddInt64(&x.segIdx[s], chunk) - chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			x.runSegChunkCounted(s, seg, lo, hi, sc, &claimed, &progress)
		}
	}
	if claimed != 0 {
		x.claimed.Add(claimed)
	}
	if progress {
		x.progress.Store(true)
	}
}

// waitSegs blocks until every segment in [from, s) has completed all its
// items. The spin is bounded: after barrierSpinIters yields the worker
// sleeps with exponential backoff, so a barrier held open for long (one
// huge predecessor chunk, an oversubscribed machine) costs no CPU instead
// of an unbounded Gosched loop.
func (x *executor) waitSegs(from, s int) {
	spins := 0
	backoff := barrierBackoffMin
	for i := from; i < s; {
		if atomic.LoadInt64(&x.segDone[i]) >= x.segs[i].items {
			i++
			continue
		}
		if spins < barrierSpinIters {
			spins++
			runtime.Gosched()
			continue
		}
		time.Sleep(backoff)
		if backoff < barrierBackoffMax {
			backoff *= 2
		}
	}
}

// runSegChunkCounted runs one claimed chunk (gates or bitset words) and —
// panicking or not — credits its full item count to the segment's
// completion counter so the inter-segment barrier always closes.
func (x *executor) runSegChunkCounted(s int, seg *execSeg, lo, hi int64, sc *scratch, claimed *int64, progress *bool) {
	defer atomic.AddInt64(&x.segDone[s], hi-lo)
	// Once a panic is recorded the sweep is doomed; surviving workers stop
	// executing gate code and only drain the claim counters so the round
	// finishes quickly.
	if x.failed.Load() != nil {
		return
	}
	if seg.script != nil {
		x.runScriptChunk(x.kind, seg.level+1, seg, lo, hi, sc, claimed, progress)
	} else {
		x.runChunk(seg.level+1, seg.gates[lo:hi], sc)
	}
}

// containPanic is deferred by the chunk runners: it records a panic in
// per-gate code in x.failed, with the coordinates of the gate being
// processed (*cur) and the segment's PanicInfo.Level coordinate lvl
// (segment level + 1, so 0 is the sequential phase), and makes the runner
// return false; the remainder of the chunk is skipped.
func (x *executor) containPanic(cur *netlist.CellID, lvl int, ok *bool) {
	if v := recover(); v != nil {
		x.failed.CompareAndSwap(nil, &panicRecord{
			value: v, stack: debug.Stack(), gate: *cur, seg: lvl,
		})
		*ok = false
	}
}

// runChunk folds the base checkpoint of one slice of the checkpoint
// round's gate list under panic containment.
func (x *executor) runChunk(lvl int, chunk []netlist.CellID, sc *scratch) (ok bool) {
	cur := netlist.CellID(-1)
	defer x.containPanic(&cur, lvl, &ok)
	for _, id := range chunk {
		cur = id
		x.e.checkpoint(id, sc)
	}
	return true
}

// runScriptChunk replays words [lo, hi) of a script segment under panic
// containment. Each word is swapped out of the dirty bitset (crediting its
// popcount back to the segment's population) and the surviving bits index
// straight into the flat instruction array; comb1 segments run the
// compiled kernel, anything else the generic interpreter. Oblivious rounds
// visit every instruction in the word range and use the swap only to drain
// stale marks.
func (x *executor) runScriptChunk(kind roundKind, lvl int, seg *execSeg, lo, hi int64, sc *scratch, claimed *int64, progress *bool) (ok bool) {
	cur := netlist.CellID(-1)
	defer x.containPanic(&cur, lvl, &ok)
	e := x.e
	sp := seg.script
	base := int(sp.BitOff) >> 6
	comb1 := sp.Kernel == truthtab.ClassComb1
	hook := e.opts.GateHook
	nOps := int64(len(sp.Ops))
	for w := lo; w < hi; w++ {
		// Clean words cost one load: the swap (an atomic RMW) only runs
		// when bits are set. A mark racing past the zero load keeps its
		// bit and its segDirty credit, so the word scans next sweep.
		bits := atomic.LoadUint64(&e.dirtyBits[base+int(w)])
		if bits != 0 {
			bits = atomic.SwapUint64(&e.dirtyBits[base+int(w)], 0)
			atomic.AddInt64(seg.dirty, -int64(mathbits.OnesCount64(bits)))
		}
		if kind == roundOblivious {
			first := w * 64
			last := first + 64
			if last > nOps {
				last = nOps
			}
			for i := first; i < last; i++ {
				op := &sp.Ops[i]
				cur = op.Gate
				if hook != nil {
					hook(op.Gate)
				}
				if e.visitGate(op, comb1, sc) {
					*progress = true
				}
			}
			continue
		}
		for bits != 0 {
			tz := mathbits.TrailingZeros64(bits)
			bits &= bits - 1
			op := &sp.Ops[w*64+int64(tz)]
			cur = op.Gate
			*claimed++
			if hook != nil {
				hook(op.Gate)
			}
			if e.visitGate(op, comb1, sc) {
				*progress = true
			}
		}
	}
	return true
}

// visitGate dispatches one gate visit to its kernel: the compiled comb1
// replay for comb1 segments, the generic interpreter otherwise, each in its
// scalar or lane form. A visit that commits no events only moved
// watermarks (or did nothing at all); those are tallied separately.
func (e *Engine) visitGate(op *plan.ScriptOp, comb1 bool, sc *scratch) bool {
	ev0 := sc.events
	var prog bool
	switch {
	case comb1 && e.lanes > 1:
		prog = e.visitLaneScriptComb1(op, sc)
	case comb1:
		prog = e.visitScriptComb1(op, sc)
	case e.lanes > 1:
		prog = e.visitLaneGate(op.Gate, sc)
	default:
		prog = e.visit(op.Gate, sc)
	}
	if sc.events == ev0 {
		sc.visitsWMOnly++
	}
	return prog
}

// takeFailure returns and clears the contained-panic record of the last
// sweep, if any. Coordinator-only.
func (x *executor) takeFailure() *panicRecord {
	rec := x.failed.Load()
	if rec != nil {
		x.failed.Store(nil)
	}
	return rec
}

// runCheckpoint folds bases for all gates, reusing the sweep machinery with
// a single all-gates segment.
func (x *executor) runCheckpoint() {
	x.runSweep(x.ckptSegs, roundCheckpoint, len(x.allGates))
}

// mergeStats folds the per-worker counters into the engine totals. Called
// from the coordinating goroutine only.
func (x *executor) mergeStats() {
	var visits, queries [truthtab.NumClasses]int64
	var events, wmOnly, laneVisits, qSaved int64
	for _, sc := range x.scratches {
		for c := range sc.visits {
			visits[c] += sc.visits[c]
			queries[c] += sc.queries[c]
			sc.visits[c], sc.queries[c] = 0, 0
		}
		events += sc.events
		sc.events = 0
		wmOnly += sc.visitsWMOnly
		sc.visitsWMOnly = 0
		laneVisits += sc.visitsLane
		sc.visitsLane = 0
		qSaved += sc.queriesSaved
		sc.queriesSaved = 0
	}
	if qSaved != 0 {
		x.e.stats.queriesSaved.Add(qSaved)
		x.e.obs.queriesSaved.Add(qSaved)
	}
	if laneVisits != 0 {
		x.e.stats.visitsLane.Add(laneVisits)
		x.e.obs.visitsLane.Add(laneVisits)
	}
	if wmOnly != 0 {
		x.e.stats.visitsWMOnly.Add(wmOnly)
		x.e.obs.visitsWMOnly.Add(wmOnly)
	}
	var vTotal, qTotal int64
	for c := range visits {
		if visits[c] != 0 {
			x.e.stats.visitsBy[c].Add(visits[c])
			x.e.obs.visitsBy[c].Add(visits[c])
			vTotal += visits[c]
		}
		if queries[c] != 0 {
			x.e.stats.queriesBy[c].Add(queries[c])
			x.e.obs.queriesBy[c].Add(queries[c])
			qTotal += queries[c]
		}
	}
	x.e.stats.visits.Add(vTotal)
	x.e.stats.queries.Add(qTotal)
	x.e.stats.events.Add(events)
	x.e.obs.events.Add(events)
}
