package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"gatesim/internal/event"
	"gatesim/internal/lane"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/plan"
	"gatesim/internal/sched"
	"gatesim/internal/sdf"
	"gatesim/internal/truthtab"
)

// Lane mode: bit-parallel multi-stimulus execution (Options.Lanes > 1).
//
// The engine's time spine — event queues, watermarks, cursors, the
// commit/replay discipline — is unchanged and shared across lanes. What a
// queue event *means* changes: event i on a net is "at this time, the lanes
// in laneStores[nid] entry i's mask changed, to the values in its word".
// Each gate visit replays the shared change points once and evaluates every
// lane at each of them; per-lane scheduling state (semantic values, pending
// output transitions) is kept lane-by-lane so lane l's committed stream is
// exactly what a scalar engine running lane l's stimulus alone would commit.
//
// Correctness argument, per lane l: at every change point the visit
// presents lane l exactly what the scalar replay would present it (its own
// event values, its own current values, and the same shared VU expiries —
// watermarks are per-net and identical), schedules only l's own output
// changes through l's own sched.Output, and stops before consuming at the
// first point where *any* lane's result is undetermined. Stopping early for
// lane l because another lane was undetermined only delays l's commits —
// determination is monotone under watermark refinement, so when the visit
// resumes past the frontier, l's replay produces the same transitions. The
// shared committedUntil guard drops exactly the replay duplicates, as in
// scalar mode, because per-lane replay is deterministic.
//
// Lane mode never checkpoints, trims, or snapshots: stores and queues grow
// with the trace (extraction reads them from index zero), and the lane base
// state stays at the broadcast initial values.

// visitLaneScriptComb1 is visitScriptComb1 over lane words: one pass over
// the shared change points evaluating every lane through the packed LUT
// (truthtab.LanePackedLUT), scheduling per-lane transitions for the lanes
// whose inputs actually changed, and committing the merged per-lane streams
// fan-out into the single output queue + lane store.
func (e *Engine) visitLaneScriptComb1(op *plan.ScriptOp, sc *scratch) bool {
	g := &e.gate[op.Gate]
	inB := int(op.InBase)
	ni := int(op.NIn)
	outB := int(op.OutSlot)
	llut := truthtab.LanePackedLUT{LUT: op.LUT}
	inQ := e.inQ[inB : inB+ni]
	inSt := e.inStore[inB : inB+ni]
	softCur := e.softCur[inB : inB+ni]
	L := e.lanes
	sc.visits[truthtab.ClassComb1]++
	sc.visitsLane++

	wm := loadWatermarks(sc, inQ)
	resume, idle := softResume(g, inQ, softCur)
	if resume && idle {
		return e.idleLaneScriptComb1(op, wm, sc)
	}
	// A real visit may change the soft lane words the idle walks' memo was
	// proven against; drop it (cheap, and stale masks are unsound).
	g.maskDet, g.maskUndet = 0, 0
	outs := sc.laneOuts[:L]
	var now int64
	var sem lane.Word
	if resume {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(softCur[i])
			sc.laneVals[i] = e.laneSoftVals[inB+i]
		}
		sem = e.laneSoftSem[outB]
		lc := e.laneLastCommitted[outB]
		for ln := 0; ln < L; ln++ {
			outs[ln].Restore(lc.Get(ln), e.laneSoftPend[outB*L+ln])
		}
		now = g.softNow
	} else {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(e.baseCur[inB+i])
			sc.laneVals[i] = e.laneBaseVals[inB+i]
		}
		sem = e.laneSemBase[outB]
		lc := e.laneLastCommitted[outB]
		for ln := 0; ln < L; ln++ {
			outs[ln].Reset(lc.Get(ln))
		}
		now = g.baseNow
	}
	arcs := e.p.Arcs[op.ArcBase : int(op.ArcBase)+ni]
	detUntil := TimeInf
	fullU := uint32(0)
	if llut.LUT.AllU {
		fullU = uint32(1)<<uint(ni) - 1
	}
	for {
		// Next change point: earliest unconsumed event below its input's
		// watermark snapshot, or stable-time expiry strictly after `now`.
		t := TimeInf
		for i := 0; i < ni; i++ {
			iq := inQ[i]
			if sc.cur[i].Idx < iq.Len() {
				if et := sc.cur[i].Peek(iq).Time; et < t && et < wm[i] {
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

		// Gather the per-lane query: event words for inputs changing at t,
		// shared VU fields for expired inputs, current words otherwise.
		var expired uint32
		var evLanes uint32
		sc.evIn = sc.evIn[:0]
		for i := 0; i < ni; i++ {
			iq := inQ[i]
			if t < wm[i] && sc.cur[i].Idx < iq.Len() {
				if sc.cur[i].Peek(iq).Time == t {
					m, w := inSt[i].At(sc.cur[i].Idx)
					sc.evMask[i] = m
					sc.qWords[i] = w
					sc.evIn = append(sc.evIn, i)
					evLanes |= m
					continue
				}
			}
			if t >= wm[i] {
				expired |= 1 << uint(i)
			}
			sc.qWords[i] = sc.laneVals[i]
		}
		// Every pin expired and the function is input-sensitive: U in every
		// lane by construction, no probe needed (see visitScriptComb1).
		if expired == fullU && fullU != 0 {
			sc.queriesSaved++
			detUntil = t
			break
		}
		// Every active lane is evaluated — not just the changed ones — so
		// the stop-before-consume frontier below can never overrun a quiet
		// lane's own undetermined point and commit a cancellable event.
		outW, undet := llut.LookupLanes(sc.qWords[:ni], expired, e.laneMask)
		sc.queries[truthtab.ClassComb1]++
		if undet != 0 {
			// Event-free probe against the final soft lane words: seed the
			// idle walks' memo (see visitScriptComb1).
			if len(sc.evIn) == 0 && (g.maskUndet == 0 || expired&^g.maskUndet == 0) {
				g.maskUndet = expired
			}
			detUntil = t
			break
		}

		// Consume the change point: only lanes with an input event here may
		// schedule (a quiet lane's scalar replay has no change point at t),
		// and only when their semantic output moved. Each lane's delay is
		// chosen over its own changing inputs; the expired-input guard
		// (expiredFaster) stops the whole visit if any lane needs it.
		if len(sc.evIn) > 0 {
			g.maskDet, g.maskUndet = 0, 0
			changed := evLanes & lane.DiffMask(outW, sem)
			if !op.Uniform && expired != 0 && e.laneExpiredFaster(arcs, changed, outW, expired, sc) {
				detUntil = t
				break
			}
			for m := changed; m != 0; m &= m - 1 {
				ln := bits.TrailingZeros32(m)
				nv := outW.Get(ln)
				var d int64
				if op.Uniform {
					d = op.Delay[nv]
				} else {
					d = laneEventDelay(arcs, sc.evIn, sc.evMask, 1<<uint(ln), nv)
				}
				outs[ln].Schedule(t+d, nv)
			}
			sem = sem.Merge(outW, changed)
			for _, i := range sc.evIn {
				sc.laneVals[i] = sc.qWords[i]
				sc.cur[i].Advance()
			}
		} else if expired&g.maskDet == g.maskDet {
			g.maskDet = expired
		}
		now = t
	}
	g.detUntil.Store(detUntil)

	// Commit the merged per-lane streams and advance the shared watermark.
	limit := outLimit(detUntil, op.MinArc)
	progress := e.publish(outB, op.OutNet, limit, e.commitLaneOutputs(outB, outs, limit, sc))
	futureMin := int64(TimeInf)
	for ln := 0; ln < L; ln++ {
		futureMin = pendMin(outs[ln].Pend(), futureMin)
	}
	g.futureMin, g.blocked = inputFutureMin(sc, inQ, futureMin)

	// Save the soft snapshot for the next visit.
	g.softNow = now
	for i := 0; i < ni; i++ {
		softCur[i] = sc.cur[i].Idx
		e.laneSoftVals[inB+i] = sc.laneVals[i]
	}
	e.laneSoftSem[outB] = sem
	for ln := 0; ln < L; ln++ {
		e.laneSoftPend[outB*L+ln] = append(e.laneSoftPend[outB*L+ln][:0], outs[ln].Pend()...)
	}
	g.softValid = true
	return progress
}

// idleLaneScriptComb1 is idleScriptComb1 over lane words: a
// watermark-expiry-only walk probing every lane per expiry, and the merged
// soft-pending prefixes to commit.
func (e *Engine) idleLaneScriptComb1(op *plan.ScriptOp, wm []int64, sc *scratch) bool {
	g := &e.gate[op.Gate]
	inB := int(op.InBase)
	ni := int(op.NIn)
	outB := int(op.OutSlot)
	llut := truthtab.LanePackedLUT{LUT: op.LUT}

	// Watermark snapshot + determinedness memo, as in idleScriptComb1. The lane
	// probe's verdict is "determined in every active lane", which is
	// antitone in the expired set exactly like the scalar one (per lane),
	// so the same masks apply to the all-lanes outcome.
	var expMax uint32
	tLast := int64(0)
	for i, w := range wm {
		if w < TimeInf {
			expMax |= 1 << uint(i)
			if w > tLast {
				tLast = w
			}
		}
	}
	now := g.softNow
	detUntil := TimeInf
	// Maximal-set shortcut, as in idleScriptComb1; the all-lanes verdict is
	// antitone per lane, so one determined-in-every-lane probe with every
	// finite-watermark input expired settles the entire walk.
	full := uint32(1)<<uint(ni) - 1
	if tLast > now && g.maskDet != 0 && !(expMax == full && llut.LUT.AllU) &&
		(g.maskUndet == 0 || expMax&g.maskUndet != g.maskUndet) {
		det := false
		if expMax&^g.maskDet == 0 {
			sc.queriesSaved++
			det = true
		} else {
			// LookupLanes only reads its input words, so the walk probes the
			// engine's soft lane words in place — no per-probe copy.
			sc.queries[truthtab.ClassComb1]++
			if _, undet := llut.LookupLanes(e.laneSoftVals[inB:inB+ni], expMax, e.laneMask); undet == 0 {
				det = true
				if expMax&g.maskDet == g.maskDet {
					g.maskDet = expMax
				}
			} else if g.maskUndet == 0 || expMax&^g.maskUndet == 0 {
				g.maskUndet = expMax
			}
		}
		if det {
			now = tLast
		}
	}
	// Incremental expired set, as in idleScriptComb1: it only grows along the
	// walk, so it is maintained in place instead of being rebuilt O(ni) at
	// every change point. The lane probe takes the set as an argument and
	// reads the engine's soft lane words directly, so there is no packed
	// index (or copy) to maintain.
	expired := uint32(0)
	for i := 0; i < ni; i++ {
		if now >= wm[i] {
			expired |= 1 << uint(i)
		}
	}
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
			if b := uint32(1) << uint(i); expired&b == 0 && t >= wm[i] {
				expired |= b
			}
		}
		if expired == full && llut.LUT.AllU {
			sc.queriesSaved++
			detUntil = t
			break
		}
		if g.maskUndet != 0 && expired&g.maskUndet == g.maskUndet {
			sc.queriesSaved++
			detUntil = t
			break
		}
		if expired&^g.maskDet == 0 {
			sc.queriesSaved++
			now = t
			continue
		}
		sc.queries[truthtab.ClassComb1]++
		if _, undet := llut.LookupLanes(e.laneSoftVals[inB:inB+ni], expired, e.laneMask); undet != 0 {
			if g.maskUndet == 0 || expired&^g.maskUndet == 0 {
				g.maskUndet = expired
			}
			detUntil = t
			break
		}
		if expired&g.maskDet == g.maskDet {
			g.maskDet = expired
		}
		now = t
	}
	g.softNow = now
	g.detUntil.Store(detUntil)

	limit := outLimit(detUntil, op.MinArc)
	progress := e.publish(outB, op.OutNet, limit, e.commitLaneSoftPend(outB, limit, sc))
	g.futureMin = e.laneSoftPendMin(outB, TimeInf)
	return progress
}

// laneEventDelay is eventDelay for one lane (bit, its mask bit): the
// fastest arc, for nv, among the inputs whose event at this change point
// includes the lane.
func laneEventDelay(arcs []sdf.Delay, evIn []int, evMask []uint32, bit uint32, nv logic.Value) int64 {
	d := int64(1) << 62
	for _, i := range evIn {
		if evMask[i]&bit != 0 {
			d = min(d, sched.DelayFor(arcs[i], nv))
		}
	}
	return d
}

// laneExpiredFaster applies the expiredFaster guard to every lane in
// changed, each scheduling its value in outW through its own delay over its
// own changing inputs.
func (e *Engine) laneExpiredFaster(arcs []sdf.Delay, changed uint32, outW lane.Word, expired uint32, sc *scratch) bool {
	for m := changed; m != 0; m &= m - 1 {
		ln := bits.TrailingZeros32(m)
		nv := outW.Get(ln)
		if expiredFaster(arcs, expired, nv, laneEventDelay(arcs, sc.evIn, sc.evMask, 1<<uint(ln), nv)) {
			return true
		}
	}
	return false
}

// laneSoftPendMin folds the earliest soft-pending transition of any lane of
// the output slot into futureMin.
func (e *Engine) laneSoftPendMin(outSlot int, futureMin int64) int64 {
	L := e.lanes
	for _, pend := range e.laneSoftPend[outSlot*L : (outSlot+1)*L] {
		futureMin = pendMin(pend, futureMin)
	}
	return futureMin
}

// visitLaneGate is the lane-mode generic (ClassSeq) visit: the scalar
// interpreter run lane-by-lane at the shared change points. A lane
// participates at a point when one of its inputs changed there, or when the
// point is a watermark crossing (which every lane's scalar replay would
// visit — watermarks are shared). Non-participating lanes are untouched:
// their scalar replays have no change point at that time, so their states
// and semantic outputs must not move.
func (e *Engine) visitLaneGate(id netlist.CellID, sc *scratch) bool {
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
	inSt := e.inStore[inB : inB+ni]
	softCur := e.softCur[inB : inB+ni]
	L := e.lanes
	sc.visits[truthtab.ClassSeq]++
	sc.visitsLane++

	wm := loadWatermarks(sc, inQ)
	resume, idle := softResume(g, inQ, softCur)
	if resume && idle {
		return e.idleLaneVisit(id, wm, sc)
	}
	var now int64
	if resume {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(softCur[i])
			sc.laneVals[i] = e.laneSoftVals[inB+i]
		}
		copy(sc.laneStates, e.laneSoftStates[stB:stB+ns])
		copy(sc.laneSem, e.laneSoftSem[outB:outB+no])
		for o := 0; o < no; o++ {
			lc := e.laneLastCommitted[outB+o]
			for ln := 0; ln < L; ln++ {
				sc.laneOuts[o*L+ln].Restore(lc.Get(ln), e.laneSoftPend[(outB+o)*L+ln])
			}
		}
		now = g.softNow
	} else {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(e.baseCur[inB+i])
			sc.laneVals[i] = e.laneBaseVals[inB+i]
		}
		copy(sc.laneStates, e.laneBaseStates[stB:stB+ns])
		copy(sc.laneSem, e.laneSemBase[outB:outB+no])
		for o := 0; o < no; o++ {
			lc := e.laneLastCommitted[outB+o]
			for ln := 0; ln < L; ln++ {
				sc.laneOuts[o*L+ln].Reset(lc.Get(ln))
			}
		}
		now = g.baseNow
	}
	detUntil := TimeInf
replay:
	for {
		t := TimeInf
		for i := 0; i < ni; i++ {
			iq := inQ[i]
			if sc.cur[i].Idx < iq.Len() {
				if et := sc.cur[i].Peek(iq).Time; et < t && et < wm[i] {
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

		// Classify the inputs at t. expiryPoint records whether any input
		// watermark crossing lies in (now, t] — those points exist in every
		// lane's scalar replay, so all lanes participate there.
		var expired uint32
		var evLanes uint32
		expiryPoint := false
		sc.evIn = sc.evIn[:0]
		for i := 0; i < ni; i++ {
			iq := inQ[i]
			sc.evMask[i] = 0
			if t < wm[i] && sc.cur[i].Idx < iq.Len() {
				if sc.cur[i].Peek(iq).Time == t {
					m, w := inSt[i].At(sc.cur[i].Idx)
					sc.evMask[i] = m
					sc.qWords[i] = w
					sc.evIn = append(sc.evIn, i)
					evLanes |= m
					continue
				}
			}
			if w := wm[i]; w > now && w <= t {
				expiryPoint = true
			}
			if t >= wm[i] {
				expired |= 1 << uint(i)
			}
		}
		partMask := evLanes
		if expiryPoint {
			partMask = e.laneMask
		}

		// Evaluate every participating lane; stop before consuming anything
		// if any of them comes back undetermined.
		undet := false
		for m := partMask; m != 0 && !undet; m &= m - 1 {
			ln := bits.TrailingZeros32(m)
			for i := 0; i < ni; i++ {
				switch {
				case sc.evMask[i] != 0 && sc.evMask[i]&(1<<uint(ln)) != 0:
					// This lane's own event: edge-code it for edge pins.
					if tab.EdgeSensitive[i] {
						sc.qIns[i] = logic.EdgeCode(sc.laneVals[i].Get(ln), sc.qWords[i].Get(ln))
					} else {
						sc.qIns[i] = sc.qWords[i].Get(ln)
					}
				case expired&(1<<uint(i)) != 0:
					sc.qIns[i] = logic.VU
				default:
					sc.qIns[i] = sc.laneVals[i].Get(ln)
				}
			}
			for s := 0; s < ns; s++ {
				sc.states[s] = sc.laneStates[s].Get(ln)
			}
			tab.LookupInto(sc.qIns[:ni], sc.states[:ns], sc.qOuts[:no], sc.qNext[:ns])
			sc.queries[truthtab.ClassSeq]++
			for o := 0; o < no; o++ {
				if sc.qOuts[o] == logic.VU {
					undet = true
				}
				sc.laneQOuts[o*L+ln] = sc.qOuts[o]
			}
			for s := 0; s < ns; s++ {
				if sc.qNext[s] == logic.VU {
					undet = true
				}
				sc.laneQNext[s*L+ln] = sc.qNext[s]
			}
		}
		if undet {
			detUntil = t
			break
		}

		// Consume: schedule per-lane output changes for event lanes, fold
		// next-states for participating lanes, advance the shared cursors.
		// The expired-input guard runs over every output first, so a stop
		// leaves the change point wholly unconsumed.
		if len(sc.evIn) > 0 {
			for o := 0; o < no && expired != 0; o++ {
				w := sc.laneSem[o]
				for m := evLanes; m != 0; m &= m - 1 {
					ln := bits.TrailingZeros32(m)
					w = w.Set(ln, sc.laneQOuts[o*L+ln])
				}
				changed := evLanes & lane.DiffMask(w, sc.laneSem[o])
				if e.laneExpiredFaster(arcs[o*ni:(o+1)*ni], changed, w, expired, sc) {
					detUntil = t
					break replay
				}
			}
			for o := 0; o < no; o++ {
				for m := evLanes; m != 0; m &= m - 1 {
					ln := bits.TrailingZeros32(m)
					nv := sc.laneQOuts[o*L+ln]
					if nv == sc.laneSem[o].Get(ln) {
						continue
					}
					d := laneEventDelay(arcs[o*ni:(o+1)*ni], sc.evIn, sc.evMask, 1<<uint(ln), nv)
					sc.laneOuts[o*L+ln].Schedule(t+d, nv)
					sc.laneSem[o] = sc.laneSem[o].Set(ln, nv)
				}
			}
			for _, i := range sc.evIn {
				sc.laneVals[i] = sc.qWords[i]
				sc.cur[i].Advance()
			}
		}
		for s := 0; s < ns; s++ {
			w := sc.laneStates[s]
			for m := partMask; m != 0; m &= m - 1 {
				ln := bits.TrailingZeros32(m)
				w = w.Set(ln, sc.laneQNext[s*L+ln])
			}
			sc.laneStates[s] = w
		}
		now = t
	}
	g.detUntil.Store(detUntil)

	progress := false
	futureMin := int64(TimeInf)
	for o := 0; o < no; o++ {
		outs := sc.laneOuts[o*L : (o+1)*L]
		limit := outLimit(detUntil, p.MinArc[outB+o])
		if e.publish(outB+o, p.OutNet[outB+o], limit, e.commitLaneOutputs(outB+o, outs, limit, sc)) {
			progress = true
		}
		for ln := range outs {
			futureMin = pendMin(outs[ln].Pend(), futureMin)
		}
	}
	g.futureMin, g.blocked = inputFutureMin(sc, inQ, futureMin)

	g.softNow = now
	for i := 0; i < ni; i++ {
		softCur[i] = sc.cur[i].Idx
		e.laneSoftVals[inB+i] = sc.laneVals[i]
	}
	copy(e.laneSoftStates[stB:stB+ns], sc.laneStates[:ns])
	copy(e.laneSoftSem[outB:outB+no], sc.laneSem[:no])
	for o := 0; o < no; o++ {
		for ln := 0; ln < L; ln++ {
			e.laneSoftPend[(outB+o)*L+ln] = append(e.laneSoftPend[(outB+o)*L+ln][:0], sc.laneOuts[o*L+ln].Pend()...)
		}
	}
	g.softValid = true
	return progress
}

// idleLaneVisit is idleVisit over lanes: an expiry-only walk evaluating
// every lane from the soft values/states (nothing is consumed — a
// determined expiry outcome must agree with the "nothing happened"
// refinement in every lane), then merged soft-pend commits.
func (e *Engine) idleLaneVisit(id netlist.CellID, wm []int64, sc *scratch) bool {
	p := e.p
	g := &e.gate[id]
	inB := int(p.InOff[id])
	ni := int(p.InOff[id+1]) - inB
	outB := int(p.OutOff[id])
	no := int(p.OutOff[id+1]) - outB
	stB := int(p.StateOff[id])
	ns := int(p.StateOff[id+1]) - stB
	tab := p.Tables[p.TableOf[id]]
	L := e.lanes

	now := g.softNow
	detUntil := TimeInf
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
		undet := false
		for ln := 0; ln < L && !undet; ln++ {
			for i := 0; i < ni; i++ {
				if t >= wm[i] {
					sc.qIns[i] = logic.VU
				} else {
					sc.qIns[i] = e.laneSoftVals[inB+i].Get(ln)
				}
			}
			for s := 0; s < ns; s++ {
				sc.states[s] = e.laneSoftStates[stB+s].Get(ln)
			}
			tab.LookupInto(sc.qIns[:ni], sc.states[:ns], sc.qOuts[:no], sc.qNext[:ns])
			sc.queries[truthtab.ClassSeq]++
			for _, v := range sc.qOuts[:no] {
				if v == logic.VU {
					undet = true
					break
				}
			}
			if !undet {
				for _, v := range sc.qNext[:ns] {
					if v == logic.VU {
						undet = true
						break
					}
				}
			}
		}
		if undet {
			detUntil = t
			break
		}
		now = t
	}
	g.softNow = now
	g.detUntil.Store(detUntil)

	progress := false
	futureMin := int64(TimeInf)
	for o := outB; o < outB+no; o++ {
		limit := outLimit(detUntil, p.MinArc[o])
		if e.publish(o, p.OutNet[o], limit, e.commitLaneSoftPend(o, limit, sc)) {
			progress = true
		}
		futureMin = e.laneSoftPendMin(o, futureMin)
	}
	g.futureMin = futureMin
	return progress
}

// commitLaneOutputs pops every lane's pending transitions below limit off
// outs (one sched.Output per lane) and appends the merged
// (mask, word) entries to the output's queue + lane store. The shared
// committedUntil guard drops replay duplicates exactly as in scalar mode:
// per-lane replay is deterministic, so a re-derived pop below the guard is
// byte-identical to the one already committed.
func (e *Engine) commitLaneOutputs(outSlot int, outs []sched.Output, limit int64, sc *scratch) bool {
	q := e.outQ[outSlot]
	st := e.outStore[outSlot]
	lc := e.laneLastCommitted[outSlot]
	newEvents := false
	for {
		t := int64(1) << 62
		for ln := range outs {
			if te, ok := outs[ln].NextPending(); ok && te < t {
				t = te
			}
		}
		if t >= limit {
			break
		}
		var mask uint32
		w := lc
		for ln := range outs {
			if te, ok := outs[ln].NextPending(); ok && te == t {
				ev := outs[ln].PopFront()
				w = w.Set(ln, ev.Val)
				mask |= 1 << uint(ln)
			}
		}
		if t > e.committedUntil[outSlot] {
			if q != nil {
				// Store entry first: the queue's atomic end-store publishes it.
				st.Append(mask, w)
				q.Append(t, w.Get(0))
				newEvents = true
				sc.events++
			}
			lc = w
		}
	}
	e.laneLastCommitted[outSlot] = lc
	return newEvents
}

// commitLaneSoftPend is commitLaneOutputs over the saved soft-pending lists
// (the idle paths, which have no live sched.Outputs): the per-lane prefixes
// below limit are merged by time, committed, and compacted away.
func (e *Engine) commitLaneSoftPend(outSlot int, limit int64, sc *scratch) bool {
	L := e.lanes
	q := e.outQ[outSlot]
	st := e.outStore[outSlot]
	lc := e.laneLastCommitted[outSlot]
	pendBase := outSlot * L
	k := sc.lanePendK[:L]
	for ln := range k {
		k[ln] = 0
	}
	newEvents := false
	for {
		t := int64(1) << 62
		for ln := 0; ln < L; ln++ {
			pend := e.laneSoftPend[pendBase+ln]
			if k[ln] < len(pend) && pend[k[ln]].Time < t {
				t = pend[k[ln]].Time
			}
		}
		if t >= limit {
			break
		}
		var mask uint32
		w := lc
		for ln := 0; ln < L; ln++ {
			pend := e.laneSoftPend[pendBase+ln]
			if k[ln] < len(pend) && pend[k[ln]].Time == t {
				w = w.Set(ln, pend[k[ln]].Val)
				mask |= 1 << uint(ln)
				k[ln]++
			}
		}
		if t > e.committedUntil[outSlot] {
			if q != nil {
				st.Append(mask, w)
				q.Append(t, w.Get(0))
				newEvents = true
				sc.events++
			}
			lc = w
		}
	}
	for ln := 0; ln < L; ln++ {
		if k[ln] > 0 {
			pend := e.laneSoftPend[pendBase+ln]
			e.laneSoftPend[pendBase+ln] = append(pend[:0], pend[k[ln]:]...)
		}
	}
	e.laneLastCommitted[outSlot] = lc
	return newEvents
}

// Lanes returns the number of active stimulus lanes (1 in scalar mode).
func (e *Engine) Lanes() int { return e.lanes }

// InjectLanes appends a lane-vector stimulus event to a primary-input net:
// the lanes in mask change to their values in w at time t. Per-lane
// re-assertions of the current value are dropped (mirroring Inject); if no
// lane genuinely changes the call is a no-op. Times must strictly increase
// per net across the lanes that remain, and must not fall below the net's
// watermark.
func (e *Engine) InjectLanes(nid netlist.NetID, t int64, w lane.Word, mask uint32) error {
	if e.poison != nil {
		return e.poisonError("inject")
	}
	if e.lanes <= 1 {
		return fmt.Errorf("sim: InjectLanes requires lane mode (Options.Lanes > 1)")
	}
	if int(nid) >= len(e.queues) || !e.p.IsPI[nid] {
		return fmt.Errorf("sim: net %d is not a primary input", nid)
	}
	q := &e.queues[nid]
	last := e.laneLast[nid]
	var changed uint32
	merged := last
	for m := mask & e.laneMask; m != 0; m &= m - 1 {
		ln := bits.TrailingZeros32(m)
		v := w.Get(ln).Settle()
		if last.Get(ln) == v {
			continue
		}
		changed |= 1 << uint(ln)
		merged = merged.Set(ln, v)
	}
	if changed == 0 {
		return nil
	}
	if t < q.DeterminedUntil() {
		return fmt.Errorf("sim: inject at %d below watermark %d on %s", t, q.DeterminedUntil(), e.nl.Nets[nid].Name)
	}
	if lt := q.LastTime(); t <= lt {
		return fmt.Errorf("sim: inject at %d not after last event %d on %s", t, lt, e.nl.Nets[nid].Name)
	}
	e.laneStores[nid].Append(changed, merged)
	q.Append(t, merged.Get(0))
	e.laneLast[nid] = merged
	e.markLoads(nid, -1, true)
	return nil
}

// LaneChange is one lane-vector stimulus event for RunLaneStream: the lanes
// in Mask change to their values in Word at Time. Word bits outside Mask
// are ignored.
type LaneChange struct {
	Net  netlist.NetID
	Time int64
	Mask uint32
	Word lane.Word
}

// MergeLaneChanges folds per-lane scalar stimulus traces (perLane[l] is
// lane l's trace, per-net time-ordered) into one lane-vector trace sorted
// by time: one LaneChange per (net, time) carrying the mask and values of
// every lane that changes there. Shared stimulus (clocks, resets) merges
// into single full-mask entries, which is what makes a lane run cost one
// pass.
func MergeLaneChanges(perLane [][]Change) ([]LaneChange, error) {
	if len(perLane) == 0 || len(perLane) > lane.MaxLanes {
		return nil, fmt.Errorf("sim: MergeLaneChanges with %d lanes (1..%d)", len(perLane), lane.MaxLanes)
	}
	type laneEv struct {
		t   int64
		nid netlist.NetID
		ln  int
		v   logic.Value
	}
	n := 0
	for _, cs := range perLane {
		n += len(cs)
	}
	flat := make([]laneEv, 0, n)
	for ln, cs := range perLane {
		for _, c := range cs {
			flat = append(flat, laneEv{c.Time, c.Net, ln, c.Val.Settle()})
		}
	}
	sort.Slice(flat, func(a, b int) bool {
		if flat[a].t != flat[b].t {
			return flat[a].t < flat[b].t
		}
		if flat[a].nid != flat[b].nid {
			return flat[a].nid < flat[b].nid
		}
		return flat[a].ln < flat[b].ln
	})
	var out []LaneChange
	for _, ev := range flat {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Time == ev.t && last.Net == ev.nid {
				last.Mask |= 1 << uint(ev.ln)
				last.Word = last.Word.Set(ev.ln, ev.v)
				continue
			}
		}
		out = append(out, LaneChange{
			Net: ev.nid, Time: ev.t,
			Mask: 1 << uint(ev.ln), Word: lane.Word(0).Set(ev.ln, ev.v),
		})
	}
	return out, nil
}

// LaneStreamConfig configures RunLaneStream.
type LaneStreamConfig struct {
	// SlicePS is the streaming window length (default 65536 ps). Lane mode
	// keeps full event history — slicing here bounds convergence work per
	// window, not memory.
	SlicePS int64
	// Watch lists the nets whose committed lane events are reported.
	// Default: the primary outputs.
	Watch []netlist.NetID
	// OnEvent receives watched lane events in global time order (ties by
	// net id): the changed-lane mask and the full merged word. May be nil.
	OnEvent func(nid netlist.NetID, t int64, mask uint32, w lane.Word)
	// AfterSlice runs at the end of every completed slice, as in
	// StreamConfig.AfterSlice — minus the snapshot legality (lane mode has
	// no snapshots). A non-nil error aborts with a resumable *SimError.
	AfterSlice func(end int64) error
}

// RunLaneStream drives a lane-mode engine from a merged lane-vector
// stimulus trace (see MergeLaneChanges) in streaming slices. It is
// RunLaneStreamCtx without cancellation.
func (e *Engine) RunLaneStream(changes []LaneChange, cfg LaneStreamConfig) error {
	return e.RunLaneStreamCtx(context.Background(), changes, cfg)
}

// RunLaneStreamCtx is RunStreamCtx's lane-mode twin: inject each slice's
// lane changes, converge to the slice horizon, and flush watched lane
// events up to the slowest watched watermark. Unlike the scalar stream it
// never checkpoints: per-lane stream extraction (LaneEvents) needs the full
// event history, so memory grows with the trace.
func (e *Engine) RunLaneStreamCtx(ctx context.Context, changes []LaneChange, cfg LaneStreamConfig) error {
	if e.poison != nil {
		return e.poisonError("stream")
	}
	if e.lanes <= 1 {
		return fmt.Errorf("sim: RunLaneStream requires lane mode (Options.Lanes > 1)")
	}
	pos := 0
	inject := func(end int64) (bool, error) {
		for ; pos < len(changes) && changes[pos].Time < end; pos++ {
			c := changes[pos]
			if err := e.InjectLanes(c.Net, c.Time, c.Word, c.Mask); err != nil {
				return false, err
			}
		}
		return pos < len(changes), nil
	}
	var emit func(nid netlist.NetID, idx int64, ev event.Event)
	if cfg.OnEvent != nil {
		emit = func(nid netlist.NetID, idx int64, ev event.Event) {
			mask, w := e.laneStores[nid].At(idx)
			cfg.OnEvent(nid, ev.Time, mask, w)
		}
	}
	first := int64(0)
	if len(changes) > 0 {
		first = changes[0].Time
	}
	return e.runSlices(ctx, first, len(changes) > 0, cfg.SlicePS, cfg.Watch, inject, emit, cfg.AfterSlice)
}

// LaneEvents reconstructs lane ln's scalar committed-event stream on a net
// from the queue + lane store: exactly the events a scalar engine running
// lane ln's stimulus alone would have committed there. Lane mode never
// trims, so the whole history is available.
func (e *Engine) LaneEvents(nid netlist.NetID, ln int) []event.Event {
	q := &e.queues[nid]
	st := &e.laneStores[nid]
	var out []event.Event
	for i := q.Start(); i < q.Len(); i++ {
		ev := q.MustAt(i)
		mask, w := st.At(i)
		if mask&(1<<uint(ln)) == 0 {
			continue
		}
		out = append(out, event.Event{Time: ev.Time, Val: w.Get(ln)})
	}
	return out
}
