package sim

import (
	mathbits "math/bits"
	"sync/atomic"

	"gatesim/internal/event"
	"gatesim/internal/lane"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/plan"
	"gatesim/internal/sched"
	"gatesim/internal/sdf"
	"gatesim/internal/truthtab"
)

// gateState is the persistent per-instance simulation state. It holds only
// scalars: everything sized by pin count lives in the engine's flat slot
// arrays (indexed through the plan's InOff/OutOff/StateOff layouts), and
// everything a visit derives beyond the base checkpoint lives in per-worker
// scratch — so a visit is a pure function of (base state, current net
// queues), and late events below a previously probed time are handled
// simply by re-deriving.
type gateState struct {
	// baseNow is the last change point folded into the base checkpoint
	// (engine slot arrays baseCur/baseVals/baseStates/semBase).
	baseNow int64

	detUntil atomic.Int64 // determination frontier of the last visit

	// Soft-resume snapshot validity: the scratch end-state of the last
	// visit is kept in the engine's soft* slot arrays. A new visit resumes
	// from there unless an event arrived below softNow (late events under a
	// previously-probed region), in which case it re-derives from the hard
	// base. This turns steady-state visits from O(window) into O(new work).
	softValid bool
	softNow   int64

	// blocked records that the last visit left unconsumed input events —
	// work only a real visit may pick up. The frontier commit reads it
	// (from the cache line it already holds for detUntil) to keep such
	// readers on the dirty path without re-scanning their input queues; a
	// stale value is safe either way, because the walk-time fallback
	// re-checks the queues themselves (frontierNeedsVisit).
	blocked bool

	// Idle-walk determinedness memo, valid only while the gate's soft
	// input values are unchanged (every real visit path zeroes both; so
	// does LoadSnapshot). maskDet is the largest expired-input set the LUT
	// was proven determined under; maskUndet is the smallest set proven
	// undetermined (0 = none recorded — an expiry set is never empty).
	// Soundness is the antitone property the watermark machinery already
	// relies on (determination is monotone under refinement): determined
	// under S stays determined — with the same value — under any S' ⊆ S,
	// and undetermined under S stays undetermined under any S' ⊇ S. The
	// idle walks discard the probe's non-U value, so determinedness alone
	// decides the walk and a memo hit reproduces the probe's control flow
	// exactly (streams are identical by construction, not just confluence).
	// maskDet is replaced only by a superset and maskUndet only by a
	// subset: a union of determined sets is not necessarily determined.
	maskDet   uint32
	maskUndet uint32

	// futureMin is the earliest time at which the last visit left work
	// behind — an unconsumed input event or an uncommitted pending output
	// transition — or TimeInf when it left none. Consuming work at time t
	// can only create events at or after t, so converge's creep-stop treats
	// a gate whose future work lies at or beyond the advance horizon as
	// quiescent for that horizon: its work is blocked on watermarks the
	// current inputs cannot move (typically the next slice's clock edges),
	// not on the watermark creep of stable loops. Requiring global
	// quiescence here instead livelocks: one horizon-blocked gate keeps the
	// stop rule off while a stable feedback ring creeps its watermarks one
	// arc delay per sweep, forever.
	futureMin int64
}

// scratch is per-worker reusable visit state, sized for the largest gate.
type scratch struct {
	cur    []event.Cursor
	vals   []logic.Value
	states []logic.Value
	sem    []logic.Value
	qIns   []logic.Value
	qOuts  []logic.Value
	qNext  []logic.Value
	outs   []sched.Output
	evIn   []int
	// Lane-mode twins (allocated only when Options.Lanes > 1): per-input
	// lane words, the per-point event words and changed-lane masks, one
	// sched.Output per (output, lane), and per-lane query buffers for the
	// generic interpreter path.
	laneVals   []lane.Word
	qWords     []lane.Word
	evMask     []uint32
	laneOuts   []sched.Output // [out*lanes + lane]
	laneSem    []lane.Word
	laneStates []lane.Word
	laneQOuts  []logic.Value // [out*lanes + lane]
	laneQNext  []logic.Value // [state*lanes + lane]
	lanePendK  []int         // [lane] soft-pend commit prefix counters
	// wm is the per-visit input watermark snapshot (see loadWatermarks):
	// one coherent read per input per visit or idle walk instead of one
	// atomic load per input per change point (conservative under
	// concurrent advancement — a fresher watermark is picked up by the
	// mark or staging its move files).
	wm []int64
	// visit counters, split per kernel class and merged into Engine.stats at
	// sweep end to avoid atomic traffic in the hot loop. visitsWMOnly
	// counts the visits that committed no events — the watermark-only share
	// the frontier plane exists to eliminate (see Stats.VisitsWatermarkOnly).
	// queriesSaved counts LUT probes the idle walks' determinedness memo
	// skipped (see gateState.maskDet).
	visits       [truthtab.NumClasses]int64
	queries      [truthtab.NumClasses]int64
	visitsWMOnly int64
	visitsLane   int64
	queriesSaved int64
	events       int64
}

func newScratch(e *Engine) *scratch {
	maxIn, maxOut, maxState := e.p.MaxInputs, e.p.MaxOutputs, e.p.MaxStates
	sc := &scratch{
		cur:    make([]event.Cursor, maxIn),
		vals:   make([]logic.Value, maxIn),
		states: make([]logic.Value, maxState),
		sem:    make([]logic.Value, maxOut),
		qIns:   make([]logic.Value, maxIn),
		qOuts:  make([]logic.Value, maxOut),
		qNext:  make([]logic.Value, maxState),
		outs:   make([]sched.Output, maxOut),
		evIn:   make([]int, 0, maxIn),
		wm:     make([]int64, maxIn),
	}
	if L := e.lanes; L > 1 {
		sc.laneVals = make([]lane.Word, maxIn)
		sc.qWords = make([]lane.Word, maxIn)
		sc.evMask = make([]uint32, maxIn)
		sc.laneOuts = make([]sched.Output, maxOut*L)
		sc.laneSem = make([]lane.Word, maxOut)
		sc.laneStates = make([]lane.Word, maxState)
		sc.laneQOuts = make([]logic.Value, maxOut*L)
		sc.laneQNext = make([]logic.Value, maxState*L)
		sc.lanePendK = make([]int, L)
	}
	return sc
}

// loadWatermarks snapshots the gate's input watermarks into sc.wm; a visit
// takes it before reading any input queue and uses it throughout, idle
// walk included. Under pool workers a driver in the same fused level group
// may commit while the visit runs, but it appends its events before it
// publishes the watermark that covers them, so every event below a loaded
// watermark is visible to the queue reads that follow. The visit's view of
// each input is therefore its events below the snapshot and U from the
// snapshot on: an event at or past it (appended since) is left for the
// visit the driver's mark schedules. A watermark read after the queue
// could cover events the visit never saw, and an event past the watermark
// would be consumed without the expiry that must follow it. On one
// goroutine every event already lies below its net's watermark.
func loadWatermarks(sc *scratch, inQ []*event.Queue) []int64 {
	wm := sc.wm[:len(inQ)]
	for i, q := range inQ {
		wm[i] = q.DeterminedUntil()
	}
	return wm
}

// softResume reports whether a visit may resume from the gate's soft
// snapshot — sound when no unconsumed input event lies below the snapshot
// point — and, if so, whether the visit is idle: with no unconsumed input
// events at all only watermark expiries can matter, and a determined expiry
// query provably changes nothing, so the idle walk serves the visit.
func softResume(g *gateState, inQ []*event.Queue, softCur []int64) (resume, idle bool) {
	if !g.softValid {
		return false, false
	}
	idle = true
	for i, q := range inQ {
		if softCur[i] < q.Len() {
			idle = false
			if q.MustAt(softCur[i]).Time < g.softNow {
				return false, false
			}
		}
	}
	return true, idle
}

// eventDelay is the delay a consumed change point schedules the new output
// value nv with: the fastest arc, for nv, among the inputs changing there
// (evIn indexes arcs, the output's per-input arcs).
func eventDelay(arcs []sdf.Delay, evIn []int, nv logic.Value) int64 {
	d := int64(1) << 62
	for _, i := range evIn {
		d = min(d, sched.DelayFor(arcs[i], nv))
	}
	return d
}

// expiredFaster is the delay guard of a change point t that consumes input
// events and changes an output to nv through delay d. An expired input (a
// bit of exp: t is at or past its watermark) may still receive an event at
// exactly t, and then the reference semantics schedule nv through the
// fastest arc of every input changing at t. If any expired input has an
// arc for nv strictly faster than d, the visit must stop at t (detUntil =
// t) until that input's watermark passes t.
func expiredFaster(arcs []sdf.Delay, exp uint32, nv logic.Value, d int64) bool {
	for m := exp; m != 0; m &= m - 1 {
		if sched.DelayFor(arcs[mathbits.TrailingZeros32(m)], nv) < d {
			return true
		}
	}
	return false
}

// outLimit is the watermark a visit that stopped at detUntil publishes on
// an output whose fastest arc is minArc: every transition a change point
// at or after detUntil can schedule lands at or beyond it.
func outLimit(detUntil, minArc int64) int64 {
	if detUntil >= TimeInf {
		return TimeInf
	}
	return min(detUntil+minArc, TimeInf)
}

// commitOutput appends out's pending transitions below limit to the output
// slot's net — skipping replay duplicates at or below committedUntil — and
// reports whether it appended any.
func (e *Engine) commitOutput(outSlot int, out *sched.Output, limit int64, sc *scratch) bool {
	q := e.outQ[outSlot]
	newEvents := false
	for {
		te, ok := out.NextPending()
		if !ok || te >= limit {
			return newEvents
		}
		ev := out.PopFront()
		if ev.Time > e.committedUntil[outSlot] {
			if q != nil {
				q.Append(ev.Time, ev.Val)
				newEvents = true
				sc.events++
			}
			e.lastCommitted[outSlot] = ev.Val
		}
	}
}

// commitSoftPend is commitOutput over the slot's saved soft-pending list
// (the idle walks, which have no live sched.Output): the prefix below limit
// is committed and compacted away.
func (e *Engine) commitSoftPend(outSlot int, limit int64, sc *scratch) bool {
	q := e.outQ[outSlot]
	newEvents := false
	pend := e.softPend[outSlot]
	k := 0
	for k < len(pend) && pend[k].Time < limit {
		ev := pend[k]
		k++
		if ev.Time > e.committedUntil[outSlot] {
			if q != nil {
				q.Append(ev.Time, ev.Val)
				newEvents = true
				sc.events++
			}
			e.lastCommitted[outSlot] = ev.Val
		}
	}
	if k > 0 {
		e.softPend[outSlot] = append(pend[:0], pend[k:]...)
	}
	return newEvents
}

// publish is the tail of every visit and idle walk, once per output after
// its transitions below limit were committed (newEvents reports whether
// any were appended): it records the output as committed through limit-1,
// advances the output net nid's watermark to limit, and wakes its readers.
// It reports whether anything downstream-visible changed.
func (e *Engine) publish(outSlot int, nid netlist.NetID, limit int64, newEvents bool) bool {
	if limit-1 > e.committedUntil[outSlot] {
		e.committedUntil[outSlot] = limit - 1
	}
	wOld := int64(-1)
	if q := e.outQ[outSlot]; q != nil && q.DeterminedUntil() < limit {
		wOld = q.DeterminedUntil()
		q.SetDeterminedUntil(limit)
	}
	if !newEvents && wOld < 0 {
		return false
	}
	e.markLoads(nid, wOld, newEvents)
	return true
}

// pendMin folds the earliest transition of a pending list (strictly
// increasing in time) into futureMin.
func pendMin(pend []event.Event, futureMin int64) int64 {
	if len(pend) > 0 && pend[0].Time < futureMin {
		return pend[0].Time
	}
	return futureMin
}

// inputFutureMin folds the earliest unconsumed input event into futureMin
// and reports whether any input event is left unconsumed (see
// gateState.blocked).
func inputFutureMin(sc *scratch, inQ []*event.Queue, futureMin int64) (int64, bool) {
	blocked := false
	for i, q := range inQ {
		if sc.cur[i].Idx < q.Len() {
			blocked = true
			if et := sc.cur[i].Peek(q).Time; et < futureMin {
				futureMin = et
			}
		}
	}
	return futureMin, blocked
}

// visit replays the gate's change points from its base checkpoint, commits
// newly determined output events, and advances output watermarks. It
// returns true when anything downstream-visible changed. It is the generic
// interpreter every non-comb1 gate (sequential cells, multi-output cells)
// runs.
func (e *Engine) visit(id netlist.CellID, sc *scratch) bool {
	p := e.p
	g := &e.gate[id]
	inB := int(p.InOff[id])
	ni := int(p.InOff[id+1]) - inB
	outB := int(p.OutOff[id])
	no := int(p.OutOff[id+1]) - outB
	stB := int(p.StateOff[id])
	ns := int(p.StateOff[id+1]) - stB
	tab := p.Tables[p.TableOf[id]]
	arcs := p.Arcs[p.ArcOff[id]:p.ArcOff[id+1]]
	inQ := e.inQ[inB : inB+ni]
	softCur := e.softCur[inB : inB+ni]
	lastCommitted := e.lastCommitted[outB : outB+no]
	softPend := e.softPend[outB : outB+no]
	sc.visits[truthtab.ClassSeq]++

	wm := loadWatermarks(sc, inQ)
	resume, idle := softResume(g, inQ, softCur)
	if resume && idle {
		return e.idleVisit(id, wm, sc)
	}
	var now int64
	if resume {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(softCur[i])
			sc.vals[i] = e.softVals[inB+i]
		}
		copy(sc.states, e.softStates[stB:stB+ns])
		copy(sc.sem, e.softSem[outB:outB+no])
		for o := 0; o < no; o++ {
			sc.outs[o].Restore(lastCommitted[o], softPend[o])
		}
		now = g.softNow
	} else {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(e.baseCur[inB+i])
			sc.vals[i] = e.baseVals[inB+i]
		}
		copy(sc.states, e.baseStates[stB:stB+ns])
		copy(sc.sem, e.semBase[outB:outB+no])
		for o := 0; o < no; o++ {
			sc.outs[o].Reset(lastCommitted[o])
		}
		now = g.baseNow
	}
	detUntil := TimeInf
replay:
	for {
		// Next change point: earliest unconsumed event below its input's
		// watermark snapshot, or stable-time expiry strictly after `now`.
		t := TimeInf
		for i := 0; i < ni; i++ {
			q := inQ[i]
			if sc.cur[i].Idx < q.Len() {
				if et := sc.cur[i].Peek(q).Time; et < t && et < wm[i] {
					t = et
				}
			}
			if w := wm[i]; w > now && w < t {
				t = w
			}
		}
		if t >= TimeInf {
			break
		}

		// Build the query vector; exp collects the expired inputs.
		var exp uint32
		sc.evIn = sc.evIn[:0]
		for i := 0; i < ni; i++ {
			q := inQ[i]
			if t < wm[i] && sc.cur[i].Idx < q.Len() {
				if ev := sc.cur[i].Peek(q); ev.Time == t {
					if tab.EdgeSensitive[i] {
						sc.qIns[i] = logic.EdgeCode(sc.vals[i], ev.Val)
					} else {
						sc.qIns[i] = ev.Val.Settle()
					}
					sc.evIn = append(sc.evIn, i)
					continue
				}
			}
			if t >= wm[i] {
				sc.qIns[i] = logic.VU
				exp |= 1 << uint(i)
			} else {
				sc.qIns[i] = sc.vals[i]
			}
		}
		tab.LookupInto(sc.qIns[:ni], sc.states[:ns], sc.qOuts[:no], sc.qNext[:ns])
		sc.queries[truthtab.ClassSeq]++

		for _, v := range sc.qOuts[:no] {
			if v == logic.VU {
				detUntil = t
				break replay
			}
		}
		for _, v := range sc.qNext[:ns] {
			if v == logic.VU {
				detUntil = t
				break replay
			}
		}

		// Consume the change point into scratch.
		if len(sc.evIn) > 0 {
			for o := 0; o < no && exp != 0; o++ {
				if nv := sc.qOuts[o]; nv != sc.sem[o] {
					oArcs := arcs[o*ni : (o+1)*ni]
					if expiredFaster(oArcs, exp, nv, eventDelay(oArcs, sc.evIn, nv)) {
						detUntil = t
						break replay
					}
				}
			}
			for o := 0; o < no; o++ {
				if nv := sc.qOuts[o]; nv != sc.sem[o] {
					sc.outs[o].Schedule(t+eventDelay(arcs[o*ni:(o+1)*ni], sc.evIn, nv), nv)
					sc.sem[o] = nv
				}
			}
			for _, i := range sc.evIn {
				sc.vals[i] = sc.cur[i].Peek(inQ[i]).Val.Settle()
				sc.cur[i].Advance()
			}
		}
		copy(sc.states[:ns], sc.qNext[:ns])
		now = t
	}
	g.detUntil.Store(detUntil)

	// Commit determined output transitions and advance watermarks.
	progress := false
	futureMin := int64(TimeInf)
	for o := 0; o < no; o++ {
		limit := outLimit(detUntil, p.MinArc[outB+o])
		if e.publish(outB+o, p.OutNet[outB+o], limit, e.commitOutput(outB+o, &sc.outs[o], limit, sc)) {
			progress = true
		}
		futureMin = pendMin(sc.outs[o].Pend(), futureMin)
	}
	g.futureMin, g.blocked = inputFutureMin(sc, inQ, futureMin)

	// Save the soft snapshot for the next visit.
	g.softNow = now
	for i := 0; i < ni; i++ {
		softCur[i] = sc.cur[i].Idx
		e.softVals[inB+i] = sc.vals[i]
	}
	copy(e.softStates[stB:stB+ns], sc.states[:ns])
	copy(e.softSem[outB:outB+no], sc.sem[:no])
	for o := 0; o < no; o++ {
		softPend[o] = append(softPend[o][:0], sc.outs[o].Pend()...)
	}
	g.softValid = true
	return progress
}

// idleVisit advances a gate that has no unconsumed input events: it walks
// the stable-time expiries to find the new determination frontier (values
// and states cannot change without events — any determined expiry outcome
// must agree with the "nothing happened" refinement), commits pending
// transitions that the advancing frontier finalizes, and bumps watermarks.
func (e *Engine) idleVisit(id netlist.CellID, wm []int64, sc *scratch) bool {
	p := e.p
	g := &e.gate[id]
	inB := int(p.InOff[id])
	ni := int(p.InOff[id+1]) - inB
	outB := int(p.OutOff[id])
	no := int(p.OutOff[id+1]) - outB
	stB := int(p.StateOff[id])
	ns := int(p.StateOff[id+1]) - stB
	tab := p.Tables[p.TableOf[id]]

	now := g.softNow
	detUntil := TimeInf
walk:
	for {
		t := int64(TimeInf)
		for i := 0; i < ni; i++ {
			if w := wm[i]; w > now && w < t {
				t = w
			}
		}
		if t >= TimeInf {
			break
		}
		for i := 0; i < ni; i++ {
			if t >= wm[i] {
				sc.qIns[i] = logic.VU
			} else {
				sc.qIns[i] = e.softVals[inB+i]
			}
		}
		tab.LookupInto(sc.qIns[:ni], e.softStates[stB:stB+ns], sc.qOuts[:no], sc.qNext[:ns])
		sc.queries[truthtab.ClassSeq]++
		for _, v := range sc.qOuts[:no] {
			if v == logic.VU {
				detUntil = t
				break walk
			}
		}
		for _, v := range sc.qNext[:ns] {
			if v == logic.VU {
				detUntil = t
				break walk
			}
		}
		now = t
	}
	g.softNow = now
	g.detUntil.Store(detUntil)

	progress := false
	futureMin := int64(TimeInf)
	for o := outB; o < outB+no; o++ {
		limit := outLimit(detUntil, p.MinArc[o])
		if e.publish(o, p.OutNet[o], limit, e.commitSoftPend(o, limit, sc)) {
			progress = true
		}
		futureMin = pendMin(e.softPend[o], futureMin)
	}
	g.futureMin = futureMin
	return progress
}

// markLoads flags gates fed by the net as needing a visit. New events
// always require one; a watermark-only advance matters only to loads whose
// determination frontier was waiting at or beyond the old watermark (wOld;
// pass -1 when the watermark did not move).
//
// The frontier filter is inclusive at the boundary, matching the exclusive
// watermark semantics (event.Queue.DeterminedUntil): a reader whose
// detUntil equals wOld stopped at the first time the net's value was NOT
// determined — time wOld itself — so this advance is exactly what unblocks
// it and it must be marked. A reader with detUntil == wOld-1 stopped while
// the net was still determined at its frontier; it is blocked on something
// else (another input, or a pending output this net cannot finalize) and
// the advance cannot unblock it. TestMarkLoadsBoundary pins both sides.
//
// A watermark-only advance does not scan the readers at all: the net is staged in O(1) on the frontier worklist —
// repeated moves coalesce onto one staging carrying their minimum wOld —
// and the drain publishes the accumulated advance to the whole reader
// cloud in one frontier commit, applying this same detUntil >= wOld filter
// per reader at drain time (conservative: detUntil only advances, so a
// drain-time read at worst wakes a reader whose walk is a no-op). Nets
// with no eligible reader at all (plan.FrontNetNone) skip the plane and
// mark their readers directly.
func (e *Engine) markLoads(nid netlist.NetID, wOld int64, newEvents bool) {
	p := e.p
	if !newEvents && p.NetFront[nid] != plan.FrontNetNone {
		// Watermark-only move (wOld >= 0 by the call sites).
		e.stageFrontierNet(nid, wOld)
		return
	}
	for k := p.FanOff[nid]; k < p.FanOff[nid+1]; k++ {
		cell := p.FanCell[k]
		if newEvents || (wOld >= 0 && e.gate[cell].detUntil.Load() >= wOld) {
			e.markDirty(cell)
		}
	}
}

// checkpoint folds the fully determined, fully committed prefix of the
// gate's change points into its base state so that the event storage below
// it can be trimmed. Called between stream slices, single-threaded per gate
// (but safe to run gates in parallel).
func (e *Engine) checkpoint(id netlist.CellID, sc *scratch) {
	p := e.p
	g := &e.gate[id]
	inB := int(p.InOff[id])
	ni := int(p.InOff[id+1]) - inB
	outB := int(p.OutOff[id])
	no := int(p.OutOff[id+1]) - outB
	stB := int(p.StateOff[id])
	ns := int(p.StateOff[id+1]) - stB
	tab := p.Tables[p.TableOf[id]]
	inQ := e.inQ[inB : inB+ni]
	baseCur := e.baseCur[inB : inB+ni]
	baseVals := e.baseVals[inB : inB+ni]
	baseStates := e.baseStates[stB : stB+ns]
	semBase := e.semBase[outB : outB+no]
	maxArc := p.MaxArc[id]

	// Safety cutoffs: all inputs still determined, and any output event the
	// folded change points could generate must already be committed.
	cutoff := int64(TimeInf)
	for i := 0; i < ni; i++ {
		if w := inQ[i].DeterminedUntil(); w < cutoff {
			cutoff = w
		}
	}
	for o := 0; o < no; o++ {
		if c := e.committedUntil[outB+o] - maxArc; c+1 < cutoff {
			cutoff = c + 1
		}
	}
	if cutoff <= g.baseNow {
		return
	}

	for i := 0; i < ni; i++ {
		sc.cur[i] = inQ[i].NewCursor(baseCur[i])
	}
	for {
		t := int64(TimeInf)
		for i := 0; i < ni; i++ {
			q := inQ[i]
			if sc.cur[i].Idx < q.Len() {
				if et := sc.cur[i].Peek(q).Time; et < t {
					t = et
				}
			}
		}
		if t >= cutoff {
			break
		}
		sc.evIn = sc.evIn[:0]
		for i := 0; i < ni; i++ {
			q := inQ[i]
			if sc.cur[i].Idx < q.Len() {
				if ev := sc.cur[i].Peek(q); ev.Time == t {
					if tab.EdgeSensitive[i] {
						sc.qIns[i] = logic.EdgeCode(baseVals[i], ev.Val)
					} else {
						sc.qIns[i] = ev.Val.Settle()
					}
					sc.evIn = append(sc.evIn, i)
					continue
				}
			}
			sc.qIns[i] = baseVals[i]
		}
		tab.LookupInto(sc.qIns[:ni], baseStates, sc.qOuts[:no], sc.qNext[:ns])
		for o := 0; o < no; o++ {
			semBase[o] = sc.qOuts[o]
		}
		copy(baseStates, sc.qNext[:ns])
		for _, i := range sc.evIn {
			baseVals[i] = sc.cur[i].Peek(inQ[i]).Val.Settle()
			sc.cur[i].Advance()
			baseCur[i] = sc.cur[i].Idx
		}
		g.baseNow = t
	}
	// The base may have consumed past the soft snapshot; drop it rather
	// than reason about partial overlap.
	if g.softValid {
		if g.baseNow > g.softNow {
			g.softValid = false
		} else {
			for i := 0; i < ni; i++ {
				if e.softCur[inB+i] < baseCur[i] {
					g.softValid = false
					break
				}
			}
		}
	}
}
