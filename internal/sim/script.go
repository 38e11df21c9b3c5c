package sim

import (
	"sync/atomic"

	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/plan"
	"gatesim/internal/truthtab"
)

// Compiled-script execution: the plan lowers each sweep segment into a flat
// instruction array (plan.Script) and the engine replays it over a dirty
// bitset — one atomic swap tests-and-clears 64 gates, and a segment whose
// population counter reads zero is skipped without touching its words.
//
// Dirtiness protocol. markDirty sets the gate's bit with a CAS-or that
// returns the old word; only the 0→1 winner increments the segment's
// population. The replay loop swaps each word to zero and decrements the
// population by the word's popcount. The counter therefore never needs a
// clearing store that could race with concurrent marks — a mark that lands
// after its word was swapped leaves bit and count consistent and is served
// next sweep. A skip based on a momentarily-zero counter is equally safe:
// the in-flight mark's bit survives, and the visit that produced the mark
// was itself claimed this sweep, so convergence cannot terminate early.

// orUint64 atomically ors mask into *addr and returns the previous value.
// (sync/atomic gained OrUint64 in Go 1.23; the module targets 1.22.)
func orUint64(addr *uint64, mask uint64) uint64 {
	for {
		old := atomic.LoadUint64(addr)
		if old&mask == mask {
			return old
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return old
		}
	}
}

// markDirty marks one gate for the next scan: the gate's bitset bit, plus
// the owning segment's population count on a 0→1 transition. Marks made
// while the frontier pass is draining are tallied so converge knows the
// pass owes the next sweep work (see frontierState.draining).
func (e *Engine) markDirty(cell netlist.CellID) {
	if e.front.draining {
		e.front.passDirty++
	}
	bit := e.p.BitOf[cell]
	w := &e.dirtyBits[bit>>6]
	mask := uint64(1) << (uint(bit) & 63)
	if atomic.LoadUint64(w)&mask != 0 {
		return
	}
	if orUint64(w, mask)&mask == 0 {
		atomic.AddInt64(&e.segDirty[e.p.SegOf[cell]], 1)
	}
}

// visitScriptComb1 is the ClassComb1 kernel, replayed from a compiled
// instruction: the straight-line replay loop for a single-output,
// zero-state gate with no edge-sensitive inputs. It follows visit (gate.go)
// exactly, minus everything such a gate cannot need: no state vector or
// semantic-output copies, no edge coding (the query value of an event is
// just its settled value), one pending output instead of a loop over
// outputs, and a packed-LUT probe — the raw input values shifted into
// 3-bit fields — instead of the generic mixed-radix table walk. Every
// plan-derived operand (slot bases, LUT, output net, minArc, the
// uniform-arc delays) comes pre-gathered from the ScriptOp. When the plan
// proved every arc delay of the gate equal (op.Uniform), delay selection
// is branch-free: op.Delay is indexed by the settled new output value,
// matching sched.DelayFor verdict-for-verdict.
func (e *Engine) visitScriptComb1(op *plan.ScriptOp, sc *scratch) bool {
	g := &e.gate[op.Gate]
	inB := int(op.InBase)
	ni := int(op.NIn)
	outB := int(op.OutSlot)
	lut := op.LUT
	inQ := e.inQ[inB : inB+ni]
	softCur := e.softCur[inB : inB+ni]
	sc.visits[truthtab.ClassComb1]++

	wm := loadWatermarks(sc, inQ)
	resume, idle := softResume(g, inQ, softCur)
	if resume && idle {
		return e.idleScriptComb1(op, wm, sc)
	}
	// A real visit may change the soft input values the idle walks' memo
	// was proven against; drop it (cheap, and stale masks are unsound).
	g.maskDet, g.maskUndet = 0, 0
	out := &sc.outs[0]
	var now int64
	var sem logic.Value
	if resume {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(softCur[i])
			sc.vals[i] = e.softVals[inB+i]
		}
		sem = e.softSem[outB]
		out.Restore(e.lastCommitted[outB], e.softPend[outB])
		now = g.softNow
	} else {
		for i := 0; i < ni; i++ {
			sc.cur[i] = inQ[i].NewCursor(e.baseCur[inB+i])
			sc.vals[i] = e.baseVals[inB+i]
		}
		sem = e.semBase[outB]
		out.Reset(e.lastCommitted[outB])
		now = g.baseNow
	}
	arcs := e.p.Arcs[op.ArcBase : int(op.ArcBase)+ni]
	detUntil := TimeInf
	fullU := uint32(0)
	if lut.AllU {
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

		// Build the packed query index directly: settled values and U are
		// their own 3-bit fields. exp tracks the expired pins so trailing
		// pure-expiry probes can seed the idle walks' determinedness memo.
		idx := 0
		var exp uint32
		sc.evIn = sc.evIn[:0]
		for i := 0; i < ni; i++ {
			iq := inQ[i]
			v := sc.vals[i]
			if t < wm[i] && sc.cur[i].Idx < iq.Len() {
				if ev := sc.cur[i].Peek(iq); ev.Time == t {
					v = ev.Val.Settle()
					sc.evIn = append(sc.evIn, i)
					idx |= int(v) << (3 * i)
					continue
				}
			}
			if t >= wm[i] {
				v = logic.VU
				exp |= 1 << uint(i)
			}
			idx |= int(v) << (3 * i)
		}
		// Every pin expired and the function is input-sensitive: the verdict
		// is U by construction (PackedLUT.AllU), no probe needed. exp only
		// covers pins that took the expiry branch, so this is event-free.
		// (fullU is zero unless the LUT qualifies, so the nonzero compare is
		// the whole check on the hot path.)
		if exp == fullU && fullU != 0 {
			sc.queriesSaved++
			detUntil = t
			break
		}
		nv := lut.Data[idx]
		sc.queries[truthtab.ClassComb1]++
		if nv == logic.VU {
			// An event-free probe used exactly the values this visit will
			// store as the soft snapshot, so its verdict seeds the memo and
			// the post-visit wakeup walk skips the re-probe.
			if len(sc.evIn) == 0 && (g.maskUndet == 0 || exp&^g.maskUndet == 0) {
				g.maskUndet = exp
			}
			detUntil = t
			break
		}

		// Consume the change point.
		if len(sc.evIn) > 0 {
			// The new input values invalidate any memo seeded at earlier
			// expiry-only probes of this visit.
			g.maskDet, g.maskUndet = 0, 0
			if nv != sem {
				var d int64
				if op.Uniform {
					d = op.Delay[nv]
				} else {
					d = eventDelay(arcs, sc.evIn, nv)
					if exp != 0 && expiredFaster(arcs, exp, nv, d) {
						detUntil = t
						break
					}
				}
				out.Schedule(t+d, nv)
				sem = nv
			}
			for _, i := range sc.evIn {
				sc.vals[i] = sc.cur[i].Peek(inQ[i]).Val.Settle()
				sc.cur[i].Advance()
			}
		} else if exp&g.maskDet == g.maskDet {
			g.maskDet = exp
		}
		now = t
	}
	g.detUntil.Store(detUntil)

	// Commit the single output and advance its watermark.
	limit := outLimit(detUntil, op.MinArc)
	progress := e.publish(outB, op.OutNet, limit, e.commitOutput(outB, out, limit, sc))
	g.futureMin, g.blocked = inputFutureMin(sc, inQ, pendMin(out.Pend(), TimeInf))

	// Save the soft snapshot for the next visit.
	g.softNow = now
	for i := 0; i < ni; i++ {
		softCur[i] = sc.cur[i].Idx
		e.softVals[inB+i] = sc.vals[i]
	}
	e.softSem[outB] = sem
	e.softPend[outB] = append(e.softPend[outB][:0], out.Pend()...)
	g.softValid = true
	return progress
}

// idleScriptComb1 is idleVisit specialized the same way: a
// watermark-expiry-only walk with a packed-LUT probe per expiry and a
// single output to commit from the soft pending list. The gate's
// determinedness memo (gateState.maskDet/maskUndet) elides probes whose
// expired-input set a previous walk already decided under the same soft
// values.
func (e *Engine) idleScriptComb1(op *plan.ScriptOp, wm []int64, sc *scratch) bool {
	g := &e.gate[op.Gate]
	inB := int(op.InBase)
	ni := int(op.NIn)
	outB := int(op.OutSlot)
	lut := op.LUT

	// The walk runs over the watermark snapshot wm (see loadWatermarks),
	// folding in the maximal expired set and its last expiry instant for
	// the shortcut below, then the expiry loop: at each expiry the set of expired inputs
	// alone decides the probe (the non-expired values are the unchanged
	// soft values), so the gate's determinedness memo can skip the LUT
	// probe whenever the set is inside a proven-determined mask or covers
	// a proven-U one.
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
	// Maximal-set shortcut: the expired set only grows along the walk, and
	// determinedness is antitone in it, so if the probe with *every*
	// finite-watermark input expired at once comes back determined, every
	// instant of the walk is determined — one probe (or a memo hit) settles
	// the whole walk and the loop below degenerates to the TimeInf break. A
	// U verdict seeds the memo and the loop finds the first U instant.
	full := uint32(1)<<uint(ni) - 1
	if tLast > now && g.maskDet != 0 && !(expMax == full && lut.AllU) &&
		(g.maskUndet == 0 || expMax&g.maskUndet != g.maskUndet) {
		det := false
		if expMax&^g.maskDet == 0 {
			sc.queriesSaved++
			det = true
		} else {
			idx := 0
			for i := 0; i < ni; i++ {
				v := e.softVals[inB+i]
				if expMax&(1<<uint(i)) != 0 {
					v = logic.VU
				}
				idx |= int(v) << (3 * i)
			}
			sc.queries[truthtab.ClassComb1]++
			if lut.Data[idx] != logic.VU {
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
	// Incremental probe state: the expired set only grows as the walk
	// advances, so the set and the packed probe index are maintained in
	// place — pins expired at `now` start as VU, the rest hold their soft
	// value and flip to VU once the walk crosses their watermark — instead
	// of rebuilding both O(ni) scans at every change point.
	exp := uint32(0)
	idx := 0
	for i := 0; i < ni; i++ {
		v := e.softVals[inB+i]
		if now >= wm[i] {
			v = logic.VU
			exp |= 1 << uint(i)
		}
		idx |= int(v) << (3 * i)
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
			if b := uint32(1) << uint(i); exp&b == 0 && t >= wm[i] {
				exp |= b
				idx = idx&^(7<<(3*uint(i))) | int(logic.VU)<<(3*uint(i))
			}
		}
		if exp == full && lut.AllU {
			sc.queriesSaved++
			detUntil = t
			break
		}
		if g.maskUndet != 0 && exp&g.maskUndet == g.maskUndet {
			sc.queriesSaved++
			detUntil = t
			break
		}
		if exp&^g.maskDet == 0 {
			sc.queriesSaved++
			now = t
			continue
		}
		sc.queries[truthtab.ClassComb1]++
		if lut.Data[idx] == logic.VU {
			if g.maskUndet == 0 || exp&^g.maskUndet == 0 {
				g.maskUndet = exp
			}
			detUntil = t
			break
		}
		if exp&g.maskDet == g.maskDet {
			g.maskDet = exp
		}
		now = t
	}
	g.softNow = now
	g.detUntil.Store(detUntil)

	limit := outLimit(detUntil, op.MinArc)
	progress := e.publish(outB, op.OutNet, limit, e.commitSoftPend(outB, limit, sc))
	g.futureMin = pendMin(e.softPend[outB], TimeInf)
	return progress
}
