package sim

import (
	"math"
	"runtime/debug"
	"sync/atomic"

	"gatesim/internal/netlist"
	"gatesim/internal/plan"
)

// Per-net frontier time plane: watermark advances are committed once per
// net, not once per gate walk.
//
// When a net's watermark moves but the visit committed no new events, the
// only thing a waiting reader would do with a visit is re-run its idle
// expiry walk (idleScriptComb1 or its lane twin). The predecessor of
// this file (watermark relax) already replaced those visits with direct
// walks, but it still paid one reader-cloud scan per watermark move: every
// quiet advance re-walked the net's fanout to stage or mark each reader.
// The frontier plane moves that scan to drain time and coalesces it:
// markLoads stages the *net* in O(1) — a flag, a bucket append, and a
// min-fold of the old watermark — and the drain publishes each staged
// net's accumulated advance to its whole reader cloud in one frontier
// commit, however many times the watermark moved since the last drain.
//
// Coalescing is sound because the staged mark keeps the minimum wOld of
// the folded moves: the reader filter {detUntil >= min(wOld_i)} is exactly
// the union of the per-move filters, and reading detUntil at drain time
// instead of move time only widens the filter (detUntil is monotone), which
// at worst stages a reader whose walk is a no-op.
//
// Eligibility and fallback. A reader is walked only when the walk is the
// whole visit: plan.FrontEligible (ClassComb1 — single output, zero state,
// no edge pins, packed LUT) and, at walk time, a valid soft snapshot with
// no unconsumed input events. Anything else — seq kernels, never-visited
// gates, gates with events in flight — falls back to a normal dirty mark,
// exactly the set a per-reader mark loop would have marked (the detUntil
// >= wOld frontier filter is applied on both paths), so committed event
// streams are those of re-visiting every waiting reader, by sweep
// confluence. Nets with no eligible reader at all (plan.FrontNetNone) skip
// the plane entirely and keep the per-reader mark loop in markLoads.
//
// Two-tier worklist. Tier 1 stages nets, bucketed by plan.NetLevel; tier 2
// stages the walkable gates the drain discovers, bucketed by
// plan.FrontLevel (the gate's output-net level), deduped through the
// cellState staged bit so a gate whose inputs move several times between
// drains walks once with every accumulated move batched. Gate staging
// happens only inside the drain — coordinator-only, workers joined — so
// tier 2 needs no atomics ever. Net staging happens on the visit paths:
// plain stores on a single-goroutine engine; under pool workers, the mark
// doubles as the flag — a CAS away from frontierUnstaged wins the bucket
// append (exactly one stager can make that transition per drain cycle),
// and losers min-fold the mark with a CAS loop so a lower wOld never loses
// a wakeup; the drain resets the mark to frontierUnstaged after reading
// it, with the pool joined.
//
// Drain order. The pass walks levels upward; within a level it drains the
// gate bucket first, then the net bucket. A gate walk at FrontLevel lv
// advances its output net at NetLevel lv, staging the net bucket the pass
// is about to drain; a net commit at NetLevel lv stages gates at
// FrontLevel >= lv+1 only (a reader of a level-lv net outputs strictly
// deeper) and dirty-marks ineligible or blocked readers. One monotone pass
// therefore settles every staging it creates — the eligible subgraph is a
// DAG; feedback runs through sequential cells, which always fall back.
//
// Placement. Watermark moves are the bridge that lets an event wave travel
// several levels inside one sweep, so a single-goroutine sweep drains at
// every segment boundary, bounded by the segment's level: only the nets
// the upcoming segment can read (NetLevel <= segment level) are settled,
// and deeper stagings stay bucketed to batch further moves. The
// sequential segment's boundary drains with bound 0 — primary-input moves
// staged by AdvanceCtx and flop-output moves from the previous sweep live
// in net bucket 0, and their seq readers must be marked before the seq
// scan, not after. A full post-sweep pass (inside each converge iteration,
// before the exit checks) drains what the last segments staged. Pooled
// sweeps cannot drain mid-sweep (the coordinator owns the pass) and rely
// on a full pre-loop pass plus the post-sweep placement.
//
// Exit safety. The post-sweep drain leaves both tiers empty at every exit
// check, so converge can never return with a live staging it owed this
// horizon; dirty marks the pass makes are counted in passDirty and owe
// another sweep. The only stagings alive outside converge are the ones
// AdvanceCtx files for primary-input watermark moves, picked up by the
// first boundary (serial) or pre-loop (pooled) drain of the next converge.

// frontierUnstaged is the netMark value of an unstaged net: above every
// real watermark, so any staging's min-fold replaces it.
const frontierUnstaged = int64(math.MaxInt64)

// frontierState is the engine's two-tier frontier worklist. All slices are
// preallocated at construction (newFrontierState).
type frontierState struct {
	// serial is set when sweeps run on a single goroutine: net staging may
	// then use plain stores, and drains may read visit-owned gate state
	// (dirty bit, soft snapshot) without synchronization.
	serial bool

	// Tier 1 — staged nets. netMark[n] doubles as the staged flag and the
	// accumulator: frontierUnstaged means unstaged, and the transition away
	// from it (CAS under workers) wins the bucket append; while staged it
	// holds the minimum old watermark of the folded moves, reset to
	// frontierUnstaged by the drain. One array means one cache line per
	// staging, and the encoding is unambiguous because markLoads only
	// stages nets whose watermark moved — wOld is strictly below the new
	// watermark, so it can never equal frontierUnstaged (TimeInf).
	// nets/netLen are per-NetLevel buckets preallocated to the level's
	// staging-eligible net population (NetFront != FrontNetNone), so an
	// append is an index store.
	netMark []int64
	nets    [][]netlist.NetID
	netLen  []int64

	// Tier 2 — staged gate walks, filed by frontier commits only
	// (coordinator-side, so plain ops throughout). cellState[g] packs the
	// staged flag (bit 0) with the gate's walk level, plan.FrontLevel[g]
	// (bits 1+), so the commit's staging hot path touches one array — one
	// cache miss — instead of a flag array plus a plan lookup; cells/cellLen
	// are per-FrontLevel buckets preallocated to the level's eligible
	// population.
	cellState []uint32
	cells     [][]netlist.CellID
	cellLen   []int64

	// staged counts the entries alive in both tiers, so pass entry and the
	// executor's drain check are O(1) instead of an every-level bucket
	// scan. Workers increment it with the net-flag CAS win (atomically);
	// every other access is coordinator-side (or single-goroutine) and
	// plain — the pool join orders them against the worker increments.
	staged int64
	// loLv is the lowest level that may hold a staging, so a bounded
	// boundary drain starts its level walk where the work is. Maintained
	// only on single-goroutine engines (bounded drains are serial-only;
	// pooled engines always drain every level and leave it 0, which is
	// always a safe understatement).
	loLv int
	// draining is set by the coordinator around frontierPass; while set,
	// markDirty counts every mark in passDirty — fallback marks and marks
	// from events the pass commits alike: work the pass owes the next
	// sweep, which converge's exit conditions must see. Workers never run
	// while it is set (the pool round has joined), so both fields are plain.
	draining  bool
	passDirty int64
}

// newFrontierState preallocates the frontier worklist for the plan.
func newFrontierState(p *plan.Plan) frontierState {
	var f frontierState
	nets := len(p.Netlist.Nets)
	f.netMark = make([]int64, nets)
	for i := range f.netMark {
		f.netMark[i] = frontierUnstaged
	}
	// One staging bucket per level in each tier, preallocated to the
	// level's population — flag dedup guarantees a bucket can never
	// overflow it. The buckets subslice two flat backing arrays so
	// construction stays O(arrays), not O(levels) (TestNewFromPlanAllocs).
	npop := make([]int64, p.NumNetLevels)
	nTot := int64(0)
	for nid := 0; nid < nets; nid++ {
		if p.NetFront[nid] != plan.FrontNetNone {
			npop[p.NetLevel[nid]]++
			nTot++
		}
	}
	f.nets = make([][]netlist.NetID, p.NumNetLevels)
	nBack := make([]netlist.NetID, nTot)
	for lv := range f.nets {
		f.nets[lv], nBack = nBack[:npop[lv]:npop[lv]], nBack[npop[lv]:]
	}
	f.netLen = make([]int64, p.NumNetLevels)
	// cellState pre-bakes each eligible gate's walk level next to the
	// staged bit so the commit hot path never touches plan.FrontLevel.
	f.cellState = make([]uint32, p.NumGates())
	cpop := make([]int64, p.NumNetLevels)
	cTot := int64(0)
	for g := 0; g < p.NumGates(); g++ {
		if p.FrontEligible[g] {
			f.cellState[g] = uint32(p.FrontLevel[g]) << 1
			cpop[p.FrontLevel[g]]++
			cTot++
		}
	}
	f.cells = make([][]netlist.CellID, p.NumNetLevels)
	cBack := make([]netlist.CellID, cTot)
	for lv := range f.cells {
		f.cells[lv], cBack = cBack[:cpop[lv]:cpop[lv]], cBack[cpop[lv]:]
	}
	f.cellLen = make([]int64, p.NumNetLevels)
	f.loLv = p.NumNetLevels
	return f
}

// stageFrontierNet stages one watermark-only net advance: O(1) per move,
// with repeated moves between drains coalescing onto the same staging by
// min-folding the old watermark. Called from markLoads on every visit path
// (workers included), so the pooled variant CASes the flag and min-CASes
// the mark; the flag loser still folds — its move may carry a lower wOld
// than the winner's.
func (e *Engine) stageFrontierNet(nid netlist.NetID, wOld int64) {
	f := &e.front
	if f.serial {
		if m := f.netMark[nid]; m == frontierUnstaged {
			f.netMark[nid] = wOld
			lv := e.p.NetLevel[nid]
			f.nets[lv][f.netLen[lv]] = nid
			f.netLen[lv]++
			f.staged++
			if int(lv) < f.loLv {
				f.loLv = int(lv)
			}
		} else if wOld < m {
			f.netMark[nid] = wOld
		}
		return
	}
	if atomic.CompareAndSwapInt64(&f.netMark[nid], frontierUnstaged, wOld) {
		lv := e.p.NetLevel[nid]
		n := atomic.AddInt64(&f.netLen[lv], 1) - 1
		f.nets[lv][n] = nid
		atomic.AddInt64(&f.staged, 1)
		return
	}
	for {
		old := atomic.LoadInt64(&f.netMark[nid])
		if wOld >= old {
			return
		}
		if atomic.CompareAndSwapInt64(&f.netMark[nid], old, wOld) {
			return
		}
	}
}

// frontierNeedsVisit reports whether an eligible reader cannot be advanced
// by an idle expiry walk right now: it has never been visited (no soft
// snapshot), or input events are waiting that only a real visit may
// consume. The blocked flag stands in for a queue scan — every visit exit
// recomputes it from the same cursors the scan would read, and events
// appended since then always came with an unconditional dirty mark, which
// frontierCell checks before calling here. Reads the gate's visit-owned
// state, so callers must hold single-threaded access to the gate — the
// coordinator mid-drain, or any code on a single-goroutine sweep — and
// must have ruled out a live dirty mark first.
func (e *Engine) frontierNeedsVisit(cell netlist.CellID) bool {
	g := &e.gate[cell]
	return !g.softValid || g.blocked
}

// isDirty reports whether the gate's dirty mark is already set. Requires
// single-threaded access — a single-goroutine engine, or the coordinator
// once the pool round has joined — because the unsynchronized read is only
// meaningful when no claimer can clear the bit concurrently.
func (e *Engine) isDirty(cell netlist.CellID) bool {
	bit := e.p.BitOf[cell]
	return e.dirtyBits[bit>>6]&(uint64(1)<<(uint(bit)&63)) != 0
}

// frontierAllLevels asks frontierPass to drain every level.
const frontierAllLevels = int(^uint(0) >> 1)

// frontierPass drains the staged tiers in one monotone walk up the levels,
// stopping after maxLv (frontierAllLevels drains everything; a single-
// goroutine sweep passes the upcoming segment's level so only the nets
// that segment can read are settled, leaving deeper stagings to batch
// further moves). Within each level the gate bucket drains before the net
// bucket — a walk's own watermark move stages the net bucket the pass is
// about to read, and a net commit stages only strictly deeper gates — so
// every staging the pass creates is reached by the same loop.
// Coordinator-only, after each sweep's pool round has joined. Returns the
// number of dirty marks the pass made — work it owes another sweep — and,
// for a panic inside gate code (the GateHook chaos path included), a
// containment record for the engine to poison on, like a sweep panic.
func (e *Engine) frontierPass(maxLv int) (dirtied int64, rec *panicRecord) {
	f := &e.front
	top := len(f.nets) - 1
	if maxLv < top {
		top = maxLv
	}
	if f.staged == 0 || (f.serial && f.loLv > top) {
		// Nothing staged, or (bounded drain) everything staged is deeper
		// than the bound: the pass would drain nothing, so skip even the
		// containment and stats plumbing — boundary drains run once per
		// segment per sweep and this is their common case.
		return 0, nil
	}
	cur := netlist.CellID(-1)
	f.draining = true
	f.passDirty = 0
	defer func() {
		f.draining = false
		if v := recover(); v != nil {
			rec = &panicRecord{value: v, stack: debug.Stack(), gate: cur, seg: -1}
		}
	}()
	sc := e.exec.scratches[0]
	var commits, walked int64
	lo := 0
	if f.serial {
		lo = f.loLv
	}
	for lv := lo; lv <= top && f.staged > 0; lv++ {
		// Gate bucket first: cellLen[lv] is fixed while it runs — walks
		// stage nets at this level, and commits stage gates strictly above.
		n := f.cellLen[lv]
		walked += n
		for i := int64(0); i < n; i++ {
			cell := f.cells[lv][i]
			f.cellState[cell] &^= 1
			e.frontierCell(cell, &cur, sc)
		}
		f.cellLen[lv] = 0
		// Net bucket: publish each staged net's coalesced advance to its
		// reader cloud. netLen[lv] is fixed here — commits move no
		// watermarks — and the mark reset is safe: no worker runs.
		m := f.netLen[lv]
		for i := int64(0); i < m; i++ {
			nid := f.nets[lv][i]
			wOld := f.netMark[nid]
			f.netMark[nid] = frontierUnstaged
			e.frontierCommit(nid, wOld)
		}
		f.netLen[lv] = 0
		f.staged -= n + m
		commits += m
	}
	if f.serial {
		// Every level through top drained; whatever survives is deeper.
		if f.staged == 0 {
			f.loLv = len(f.nets)
		} else if f.loLv <= top {
			f.loLv = top + 1
		}
	}
	e.stats.frontierCommits.Add(commits)
	e.obs.frontierCommits.Add(commits)
	if walked != 0 {
		// Only walks touch the scratch counters; a nets-only pass has
		// nothing to fold.
		e.exec.mergeStats()
	}
	return f.passDirty, nil
}

// frontierCommit publishes one net's coalesced watermark advance to its
// readers: the planned eligible cloud (plan.FrontCell CSR) is scanned
// once, staging each waiting unblocked reader for a walk and dirty-marking
// the rest; mixed nets additionally scan their full fanout for the
// ineligible readers the CSR excludes. The detUntil filter matches
// markLoads' per-reader boundary semantics exactly (inclusive at wOld).
func (e *Engine) frontierCommit(nid netlist.NetID, wOld int64) {
	p := e.p
	f := &e.front
	for k := p.FrontOff[nid]; k < p.FrontOff[nid+1]; k++ {
		cell := p.FrontCell[k]
		// Staged-bit first: a reader already staged by an earlier commit in
		// this pass needs nothing more, and the dense cellState probe spares
		// the gate-struct load — multi-input readers sit in several clouds,
		// so within one pass this is the common repeat case. (A blocked
		// already-staged reader loses nothing: its walk-time fallback makes
		// the same dirty mark this loop would have.)
		st := f.cellState[cell]
		if st&1 != 0 {
			continue
		}
		g := &e.gate[cell]
		if g.detUntil.Load() < wOld {
			continue
		}
		// g.blocked rides the cache line the frontier check just loaded: a
		// reader whose last visit left unconsumed input events needs a real
		// visit. A stale flag is safe either way — the walk-time fallback
		// (frontierNeedsVisit) re-checks the queues themselves.
		if g.blocked {
			e.markDirty(cell)
			continue
		}
		f.cellState[cell] = st | 1
		lv := st >> 1
		f.cells[lv][f.cellLen[lv]] = cell
		f.cellLen[lv]++
		f.staged++
	}
	if p.NetFront[nid] == plan.FrontNetMixed {
		for k := p.FanOff[nid]; k < p.FanOff[nid+1]; k++ {
			cell := p.FanCell[k]
			if p.FrontEligible[cell] {
				continue
			}
			if e.gate[cell].detUntil.Load() >= wOld {
				e.markDirty(cell)
			}
		}
	}
}

// frontierCell runs one staged reader's idle expiry walk — committing any
// soft-pending transitions the advancing frontiers finalize and staging
// its output net when the watermark moved. A reader that turns out to need
// a real visit after all (no soft snapshot yet, or input events committed
// by a lower-level walk in this same pass) falls back to a dirty mark; the
// check happens at walk time, after every lower level settled, so it sees
// the pass's own commits.
func (e *Engine) frontierCell(cell netlist.CellID, cur *netlist.CellID, sc *scratch) {
	p := e.p
	if e.isDirty(cell) {
		// Already owed a visit (an event mark landed after staging); the
		// visit reads the live queues, covering this move too.
		return
	}
	if e.frontierNeedsVisit(cell) {
		e.markDirty(cell)
		return
	}
	*cur = cell
	if hook := e.opts.GateHook; hook != nil {
		hook(cell)
	}
	// The walk runs from the gate's script instruction — the same
	// pre-gathered operands the sweep uses, so the pass pays no per-gate
	// plan lookups either. Lane mode walks every lane per expiry.
	sp := &p.Scripts[p.SegOf[cell]]
	op := &sp.Ops[p.BitOf[cell]-sp.BitOff]
	wm := loadWatermarks(sc, e.inQ[op.InBase:int(op.InBase)+int(op.NIn)])
	if e.lanes > 1 {
		e.idleLaneScriptComb1(op, wm, sc)
	} else {
		e.idleScriptComb1(op, wm, sc)
	}
	*cur = -1
}

// resetFrontier empties both tiers (snapshot restore: the staged state
// belongs to the replaced world; markAllDirty re-derives everything).
func (e *Engine) resetFrontier() {
	f := &e.front
	for lv := range f.nets {
		for _, nid := range f.nets[lv][:f.netLen[lv]] {
			f.netMark[nid] = frontierUnstaged
		}
		f.netLen[lv] = 0
		for _, cell := range f.cells[lv][:f.cellLen[lv]] {
			f.cellState[cell] &^= 1
		}
		f.cellLen[lv] = 0
	}
	f.staged = 0
	f.loLv = len(f.nets)
}
