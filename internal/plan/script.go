package plan

import (
	"gatesim/internal/netlist"
	"gatesim/internal/truthtab"
)

// Script is the compiled form of one sweep segment: the segment's gates
// lowered into a flat instruction array replayed by a tight per-kernel loop
// in the executor, with no per-gate plan lookups on the hot path. Scripts
// parallel Segs one-to-one (same gates, order, level and barrier): the
// script schedule is the bucketed segment schedule in executable form.
//
// Each script owns a word-aligned range of the plan-wide dirty bitset
// starting at BitOff: op i's dirty bit is BitOff+i, so a sweep tests and
// clears dirtiness 64 gates at a time (one atomic swap per word) instead of
// one flag load per gate, and a clean segment costs a single counter load.
type Script struct {
	Ops     []ScriptOp
	Kernel  truthtab.Class
	Level   int // -1 for the sequential phase
	Barrier bool
	BitOff  int32 // first dirty-bit index; always a multiple of 64
}

// Words returns the number of dirty-bitset words the script spans.
func (s *Script) Words() int { return (len(s.Ops) + 63) / 64 }

// ScriptOp is one flat instruction: every plan-derived operand a kernel
// visit needs, gathered at lowering time. Comb1 scripts carry the full
// operand set; other classes dispatch through the generic interpreter and
// use only Gate.
type ScriptOp struct {
	Gate    netlist.CellID
	InBase  int32 // first input slot (InOff layout)
	NIn     int32
	OutSlot int32 // the single output slot (comb1 only)
	ArcBase int32 // first flattened arc (ArcOff layout)
	OutNet  netlist.NetID
	LUT     *truthtab.PackedLUT
	MinArc  int64 // commit lookahead of the output slot
	// Delay is the uniform-arc transition delay indexed directly by the
	// settled new output value (V0..VZ = 0..3): Fall, Rise, Max, Max —
	// exactly sched.DelayFor's verdicts, precomputed so the scheduling
	// branch collapses to one indexed load. Valid only when Uniform.
	Delay   [4]int64
	Uniform bool
}

// lowerScripts compiles Segs into Scripts and lays out the dirty bitset:
// BitOf/SegOf map each gate to its bit and owning script, ScriptWords sizes
// the bitset. Arc delays are baked into the instructions, so the whole
// lowering is delay-derived and re-run by WithDelays; the layout is a pure
// function of Segs, which WithDelays shares.
func (p *Plan) lowerScripts() {
	n := p.NumGates()
	p.BitOf = make([]int32, n)
	p.SegOf = make([]int32, n)
	p.Scripts = make([]Script, len(p.Segs))
	bit := int32(0)
	for si := range p.Segs {
		seg := &p.Segs[si]
		s := &p.Scripts[si]
		s.Kernel = seg.Kernel
		s.Level = seg.Level
		s.Barrier = seg.Barrier
		s.BitOff = bit
		s.Ops = make([]ScriptOp, len(seg.Gates))
		for k, id := range seg.Gates {
			p.BitOf[id] = bit + int32(k)
			p.SegOf[id] = int32(si)
			op := &s.Ops[k]
			op.Gate = id
			if seg.Kernel != truthtab.ClassComb1 {
				continue
			}
			op.InBase = p.InOff[id]
			op.NIn = p.InOff[id+1] - p.InOff[id]
			op.OutSlot = p.OutOff[id]
			op.ArcBase = p.ArcOff[id]
			op.OutNet = p.OutNet[op.OutSlot]
			op.LUT = p.LUTs[p.TableOf[id]]
			op.MinArc = p.MinArc[op.OutSlot]
			op.Uniform = p.ArcUniform[id]
			if op.Uniform && op.NIn > 0 {
				d := p.Arcs[op.ArcBase]
				op.Delay[0] = d.Fall // DelayFor toward V0
				op.Delay[1] = d.Rise // toward V1
				op.Delay[2] = d.Max()
				op.Delay[3] = d.Max()
			}
		}
		// Word-align the next script's range so a swapped word never spans
		// two segments.
		bit += int32(s.Words()) * 64
	}
	p.ScriptWords = int(bit) / 64
}
