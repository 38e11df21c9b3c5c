// Package plan lowers a netlist plus its compiled library, delay
// annotation, levelization and initial-condition fixpoint into a flat,
// structure-of-arrays SimPlan that all three simulators construct from.
//
// The lowering runs once per (design, delays) pair and produces:
//
//   - interned truth-table pointers: each distinct cell type used by the
//     design gets a dense table ID, so the hot path never consults the
//     library's string-keyed map;
//   - CSR pin adjacency: per-gate input/output/state slots live in flat
//     arrays addressed by offset slices (InOff/OutOff/StateOff), replacing
//     the per-gate [][] slices each simulator used to allocate;
//   - CSR net fanout: the (cell, pin) loads of every net in two flat arrays
//     addressed by FanOff, replacing pointer-chasing through netlist.Load
//     slices;
//   - flattened arc delays plus the derived per-output MinArc (commit
//     lookahead) and per-gate MaxArc (checkpoint safety) vectors;
//   - the settled pre-time-zero initial conditions as flat per-slot vectors
//     shared verbatim by every simulator, which is what keeps their event
//     streams byte-identical.
//
// Building a Plan is the only O(design) construction cost; engines built
// from an existing Plan allocate a fixed number of arrays, not O(gates)
// slices. WithDelays re-lowers only the delay-derived vectors so harness
// experiments can share one structural lowering across annotations.
package plan

import (
	"fmt"

	"gatesim/internal/levelize"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/sdf"
	"gatesim/internal/truthtab"
)

// Plan is the flat lowered form of one design under one delay annotation.
// All slices are read-only after Build; simulators may share one Plan
// concurrently.
type Plan struct {
	Netlist *netlist.Netlist
	Lib     *truthtab.CompiledLibrary
	Delays  *sdf.Delays
	Lev     *levelize.Levelization

	// Interned truth tables: Tables[TableOf[g]] is gate g's table.
	Tables  []*truthtab.Table
	TableOf []int32

	// CSR pin layout. Gate g's input slots are [InOff[g], InOff[g+1]),
	// likewise OutOff for outputs and StateOff for internal state.
	InOff    []int32
	OutOff   []int32
	StateOff []int32
	// InNet[s] / OutNet[s] is the net on slot s (-1 = unconnected output).
	InNet  []netlist.NetID
	OutNet []netlist.NetID

	// CSR net fanout: net n's loads are FanCell/FanPin[FanOff[n]:FanOff[n+1]].
	FanOff  []int32
	FanCell []netlist.CellID
	FanPin  []int32

	// Flattened arc delays: Arc(g, o, i) = Arcs[ArcOff[g] + o*numIn(g) + i].
	ArcOff []int32
	Arcs   []sdf.Delay
	// MinArc[s] is the minimum arc delay into output slot s (OutOff layout;
	// 0 for gates with no inputs). MaxArc[g] is the gate's largest arc max.
	MinArc []int64
	MaxArc []int64

	// Kernel classification. KernelOf[tid] is the kernel class of interned
	// table tid — ClassComb1 only when a packed LUT was built, so consumers
	// may index LUTs unconditionally on that class. ArcUniform[g] reports
	// that every arc delay of gate g is identical, letting kernels replace
	// the per-changed-input minimum scan with Arcs[ArcOff[g]] (delay-derived:
	// recomputed by WithDelays). Segs is the kernel-bucketed sweep schedule
	// shared by the engines.
	KernelOf   []truthtab.Class
	LUTs       []*truthtab.PackedLUT
	ArcUniform []bool
	Segs       []Segment

	// Compiled segment scripts: Scripts[i] is Segs[i] lowered into a flat
	// instruction array, BitOf/SegOf map each gate to its dirty bit and
	// owning script, and ScriptWords sizes the engine's dirty bitset.
	// Delay-derived (instructions bake arc delays in): rebuilt by WithDelays.
	Scripts     []Script
	BitOf       []int32
	SegOf       []int32
	ScriptWords int

	// FusedLevels counts combinational levels whose segments were folded
	// into the preceding barrier group at plan time (low-population levels
	// need no barrier of their own; see lowerSegments).
	FusedLevels int

	// Frontier plane lowering (structural, shared by WithDelays): the
	// net→reader-cloud structure the engine's frontier pass publishes
	// watermark advances through, one commit per net instead of one walk
	// per reader visit.
	//
	// FrontEligible[g] marks gates whose quiet watermark advance the engine
	// may compute without a scheduled visit: exactly the ClassComb1 gates —
	// single output, zero state, no edge-sensitive inputs, packed LUT built —
	// whose idle walk (the engine's comb1 idle kernels) is a pure
	// function of input watermarks and soft state. NetLevel[n] is the net's
	// topological depth for the frontier drain order: 0 for primary inputs,
	// undriven nets and outputs of sequential-phase gates, driver's
	// combinational level + 1 otherwise, so an eligible reader's output net
	// is always at a strictly higher level than any of its input nets.
	// NumNetLevels bounds the values in NetLevel.
	//
	// NetFront[n] classifies net n's readers for the watermark-only mark
	// path: FrontNetNone nets (no eligible reader, or no readers) fall
	// straight through to the per-reader mark loop without touching frontier
	// state; FrontNetAll nets have only eligible readers, so a frontier
	// commit needs no fallback scan; FrontNetMixed nets additionally walk
	// their full fanout at drain time to dirty-mark the ineligible readers.
	// The eligible reader cloud itself is a planned unit:
	// FrontCell[FrontOff[n]:FrontOff[n+1]] lists net n's eligible readers,
	// so a commit iterates exactly the cloud, not the whole fanout.
	//
	// FrontLevel[g] is the eligible gate's walk level — its (single) output
	// net's NetLevel — pre-gathered so the staging path pays one load
	// instead of three. Zero for ineligible gates (never staged).
	FrontEligible []bool
	FrontLevel    []int32
	NetFront      []uint8
	FrontOff      []int32
	FrontCell     []netlist.CellID
	NetLevel      []int32
	NumNetLevels  int

	// Initial-condition fixpoint, flattened to the slot layouts above.
	NetInit   []logic.Value // per net
	InInit    []logic.Value // per input slot
	StateInit []logic.Value // per state slot
	OutInit   []logic.Value // per output slot (semantic pre-delay values)

	// IsPI[n] marks primary-input nets.
	IsPI []bool

	// Aggregate shape, precomputed so consumers avoid re-walking the design.
	Pins       int
	MaxInputs  int
	MaxOutputs int
	MaxStates  int
}

// Segment is one kernel-homogeneous slice of the sweep schedule. Segments
// run in order: the sequential phase (Level -1) first, then each
// combinational level, each split into per-class buckets in Class order.
// Barrier marks the segments that must wait for every earlier segment to
// complete — the first bucket of each phase/level, except for
// low-population levels fused into the preceding group (see lowerSegments
// and Plan.FusedLevels). Buckets of one level
// never share output nets or state, so they need no barrier between them;
// the stable instance order inside each bucket keeps committed event
// streams byte-identical with the unbucketed schedule (fixpoint sweeps are
// confluent under any within-level visit order).
type Segment struct {
	Gates   []netlist.CellID
	Kernel  truthtab.Class
	Level   int // -1 for the sequential phase
	Barrier bool
}

// Build validates and lowers the design. The compiled library must cover
// every cell type; delays must come from sdf.Apply/sdf.Uniform on the same
// netlist.
func Build(nl *netlist.Netlist, lib *truthtab.CompiledLibrary, delays *sdf.Delays) (*Plan, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	lv, err := levelize.Compute(nl)
	if err != nil {
		return nil, err
	}
	ic, err := truthtab.ComputeInitialConditions(nl, lib)
	if err != nil {
		return nil, err
	}

	p := &Plan{Netlist: nl, Lib: lib, Delays: delays, Lev: lv}
	n := len(nl.Instances)

	// Intern tables and size the slot arrays.
	tableID := make(map[*truthtab.Table]int32, 16)
	p.TableOf = make([]int32, n)
	p.InOff = make([]int32, n+1)
	p.OutOff = make([]int32, n+1)
	p.StateOff = make([]int32, n+1)
	p.ArcOff = make([]int32, n+1)
	totalIn, totalOut, totalState, totalArc := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		inst := &nl.Instances[i]
		tab := lib.Tables[inst.Type.Name]
		if tab == nil {
			return nil, fmt.Errorf("plan: cell type %s not in compiled library", inst.Type.Name)
		}
		id, ok := tableID[tab]
		if !ok {
			id = int32(len(p.Tables))
			tableID[tab] = id
			p.Tables = append(p.Tables, tab)
			if tab.NumInputs > p.MaxInputs {
				p.MaxInputs = tab.NumInputs
			}
			if tab.NumOutputs > p.MaxOutputs {
				p.MaxOutputs = tab.NumOutputs
			}
			if tab.NumStates > p.MaxStates {
				p.MaxStates = tab.NumStates
			}
		}
		p.TableOf[i] = id
		p.InOff[i] = int32(totalIn)
		p.OutOff[i] = int32(totalOut)
		p.StateOff[i] = int32(totalState)
		p.ArcOff[i] = int32(totalArc)
		totalIn += tab.NumInputs
		totalOut += tab.NumOutputs
		totalState += tab.NumStates
		totalArc += tab.NumInputs * tab.NumOutputs
	}
	p.InOff[n] = int32(totalIn)
	p.OutOff[n] = int32(totalOut)
	p.StateOff[n] = int32(totalState)
	p.ArcOff[n] = int32(totalArc)
	p.Pins = nl.Stats().Pins

	// Pin slots and flattened initial conditions.
	p.InNet = make([]netlist.NetID, totalIn)
	p.OutNet = make([]netlist.NetID, totalOut)
	p.InInit = make([]logic.Value, totalIn)
	p.StateInit = make([]logic.Value, totalState)
	p.OutInit = make([]logic.Value, totalOut)
	for i := 0; i < n; i++ {
		inst := &nl.Instances[i]
		inB, outB, stB := p.InOff[i], p.OutOff[i], p.StateOff[i]
		for pi, nid := range inst.InNets {
			p.InNet[inB+int32(pi)] = nid
			p.InInit[inB+int32(pi)] = ic.NetVals[nid]
		}
		copy(p.OutNet[outB:p.OutOff[i+1]], inst.OutNets)
		copy(p.StateInit[stB:p.StateOff[i+1]], ic.States[i])
		copy(p.OutInit[outB:p.OutOff[i+1]], ic.Outs[i])
	}
	p.NetInit = make([]logic.Value, len(ic.NetVals))
	copy(p.NetInit, ic.NetVals)

	// Net fanout CSR and PI marks.
	nn := len(nl.Nets)
	p.FanOff = make([]int32, nn+1)
	p.IsPI = make([]bool, nn)
	totalFan := 0
	for nid := range nl.Nets {
		p.FanOff[nid] = int32(totalFan)
		totalFan += len(nl.Nets[nid].Fanout)
		p.IsPI[nid] = nl.Nets[nid].IsInput
	}
	p.FanOff[nn] = int32(totalFan)
	p.FanCell = make([]netlist.CellID, totalFan)
	p.FanPin = make([]int32, totalFan)
	for nid := range nl.Nets {
		base := p.FanOff[nid]
		for k, load := range nl.Nets[nid].Fanout {
			p.FanCell[base+int32(k)] = load.Cell
			p.FanPin[base+int32(k)] = load.InIdx
		}
	}

	// Kernel classification is per interned table; a ClassComb1 verdict is
	// only kept when the packed LUT actually materialized.
	p.KernelOf = make([]truthtab.Class, len(p.Tables))
	p.LUTs = make([]*truthtab.PackedLUT, len(p.Tables))
	for i, tab := range p.Tables {
		if lut := tab.PackLUT(); lut != nil {
			p.KernelOf[i] = truthtab.ClassComb1
			p.LUTs[i] = lut
		}
	}
	p.lowerSegments()
	p.lowerFrontier()

	p.lowerDelays(delays)
	return p, nil
}

// lowerFrontier precomputes the frontier-plane vectors: per-gate
// eligibility (the kernel-classification verdict widened to a dense bool so
// the mark path pays one byte load per reader), the per-net reader-cloud
// CSR a frontier commit iterates, and the per-net topological level the
// frontier pass drains in. All structural — a function of the netlist and
// levelization only — so WithDelays shares them.
func (p *Plan) lowerFrontier() {
	n := p.NumGates()
	p.FrontEligible = make([]bool, n)
	for g := 0; g < n; g++ {
		p.FrontEligible[g] = p.KernelOf[p.TableOf[g]] == truthtab.ClassComb1
	}
	nets := len(p.Netlist.Nets)
	p.NetFront = make([]uint8, nets)
	p.FrontOff = make([]int32, nets+1)
	eligible := 0
	for nid := 0; nid < nets; nid++ {
		all, any := true, false
		for k := p.FanOff[nid]; k < p.FanOff[nid+1]; k++ {
			if p.FrontEligible[p.FanCell[k]] {
				any = true
				eligible++
			} else {
				all = false
			}
		}
		switch {
		case !any:
			p.NetFront[nid] = FrontNetNone
		case all:
			p.NetFront[nid] = FrontNetAll
		default:
			p.NetFront[nid] = FrontNetMixed
		}
	}
	p.FrontCell = make([]netlist.CellID, 0, eligible)
	for nid := 0; nid < nets; nid++ {
		p.FrontOff[nid] = int32(len(p.FrontCell))
		if p.NetFront[nid] == FrontNetNone {
			continue
		}
		for k := p.FanOff[nid]; k < p.FanOff[nid+1]; k++ {
			if c := p.FanCell[k]; p.FrontEligible[c] {
				p.FrontCell = append(p.FrontCell, c)
			}
		}
	}
	p.FrontOff[nets] = int32(len(p.FrontCell))
	p.NetLevel = make([]int32, nets)
	for lv, gates := range p.Lev.Levels {
		for _, id := range gates {
			for _, nid := range p.GateOutputs(id) {
				if nid >= 0 {
					p.NetLevel[nid] = int32(lv) + 1
				}
			}
		}
	}
	p.NumNetLevels = len(p.Lev.Levels) + 1
	p.FrontLevel = make([]int32, n)
	for g := 0; g < n; g++ {
		if p.FrontEligible[g] {
			p.FrontLevel[g] = p.NetLevel[p.OutNet[p.OutOff[g]]]
		}
	}
}

// NetFront classes (see the field doc).
const (
	FrontNetNone uint8 = iota
	FrontNetMixed
	FrontNetAll
)

// fuseMaxGates caps the population of a fused barrier group: a level is
// folded into the preceding group only while the whole group stays within
// one worker claim chunk, so dropping the barrier can't cost parallelism —
// the group was never going to be split across workers productively anyway.
const fuseMaxGates = 64

// lowerSegments buckets the levelization's sweep segments by kernel class:
// one backing array in schedule order, sub-sliced per (level, class) run.
// Within a bucket the original instance order is kept, so each bucket —
// and the concatenation of a level's buckets — is a stable reordering of
// the level.
//
// A second pass fuses adjacent low-population combinational levels into one
// barrier group by clearing the Barrier flag on a level whose gates fit,
// together with the running group, under fuseMaxGates. Dropping the barrier
// only relaxes ordering between levels: a gate that scans before its
// predecessor finishes either sees the published events (queues support one
// writer with concurrent readers) or is re-marked dirty by the write and
// revisited next sweep — the fixpoint is confluent, so committed streams
// are unchanged while shallow levels stop paying a barrier each. The
// sequential phase always keeps its barrier, and level 0 is never fused
// into it.
func (p *Plan) lowerSegments() {
	total := len(p.Lev.Sequential)
	for _, lv := range p.Lev.Levels {
		total += len(lv)
	}
	backing := make([]netlist.CellID, 0, total)
	p.Segs = make([]Segment, 0, 1+len(p.Lev.Levels))
	addLevel := func(level int, gates []netlist.CellID) {
		first := true
		for cls := truthtab.Class(0); cls < truthtab.NumClasses; cls++ {
			start := len(backing)
			for _, id := range gates {
				if p.KernelOf[p.TableOf[id]] == cls {
					backing = append(backing, id)
				}
			}
			if len(backing) == start {
				continue
			}
			p.Segs = append(p.Segs, Segment{
				Gates:   backing[start:len(backing):len(backing)],
				Kernel:  cls,
				Level:   level,
				Barrier: first,
			})
			first = false
		}
	}
	addLevel(-1, p.Lev.Sequential)
	for lv, gates := range p.Lev.Levels {
		addLevel(lv, gates)
	}

	// Fusion pass: pop tracks the running barrier-group population.
	pop := 0
	for i := range p.Segs {
		s := &p.Segs[i]
		if s.Barrier {
			if s.Level >= 1 && pop+len(p.Lev.Levels[s.Level]) <= fuseMaxGates {
				s.Barrier = false
				p.FusedLevels++
			} else {
				pop = 0
			}
		}
		pop += len(s.Gates)
	}
}

// lowerDelays fills the delay-derived vectors from the annotation.
func (p *Plan) lowerDelays(delays *sdf.Delays) {
	n := p.NumGates()
	p.Delays = delays
	p.Arcs = make([]sdf.Delay, p.ArcOff[n])
	p.MinArc = make([]int64, len(p.OutNet))
	p.MaxArc = make([]int64, n)
	p.ArcUniform = make([]bool, n)
	for g := 0; g < n; g++ {
		id := netlist.CellID(g)
		ni := int(p.InOff[g+1] - p.InOff[g])
		no := int(p.OutOff[g+1] - p.OutOff[g])
		arcB := int(p.ArcOff[g])
		outB := int(p.OutOff[g])
		maxArc := int64(0)
		for o := 0; o < no; o++ {
			minArc := int64(0)
			if ni > 0 {
				minArc = delays.MinArc(id, o)
			}
			p.MinArc[outB+o] = minArc
			for i := 0; i < ni; i++ {
				d := delays.Arc(id, o, i)
				p.Arcs[arcB+o*ni+i] = d
				if m := d.Max(); m > maxArc {
					maxArc = m
				}
			}
		}
		p.MaxArc[g] = maxArc
		arcs := p.Arcs[arcB : arcB+ni*no]
		uniform := true
		for i := 1; i < len(arcs); i++ {
			if arcs[i] != arcs[0] {
				uniform = false
				break
			}
		}
		p.ArcUniform[g] = uniform
	}
	p.lowerScripts()
}

// WithDelays returns a plan sharing every structural array with p but
// lowered against a different delay annotation (which must target the same
// netlist). Harness experiments use this to compare SDF vs unit delays
// without re-running levelization, interning or the IC fixpoint.
func (p *Plan) WithDelays(delays *sdf.Delays) *Plan {
	q := *p
	q.lowerDelays(delays)
	return &q
}

// NumGates returns the instance count.
func (p *Plan) NumGates() int { return len(p.TableOf) }

// NumNets returns the net count.
func (p *Plan) NumNets() int { return len(p.NetInit) }

// Table returns gate g's interned truth table.
func (p *Plan) Table(g netlist.CellID) *truthtab.Table { return p.Tables[p.TableOf[g]] }

// Kernel returns gate g's kernel class.
func (p *Plan) Kernel(g netlist.CellID) truthtab.Class { return p.KernelOf[p.TableOf[g]] }

// NumIn returns gate g's input count.
func (p *Plan) NumIn(g netlist.CellID) int { return int(p.InOff[g+1] - p.InOff[g]) }

// NumOut returns gate g's output count.
func (p *Plan) NumOut(g netlist.CellID) int { return int(p.OutOff[g+1] - p.OutOff[g]) }

// GateInputs returns gate g's input nets (shared storage; read-only).
func (p *Plan) GateInputs(g netlist.CellID) []netlist.NetID {
	return p.InNet[p.InOff[g]:p.InOff[g+1]]
}

// GateOutputs returns gate g's output nets (shared storage; read-only;
// -1 entries are unconnected).
func (p *Plan) GateOutputs(g netlist.CellID) []netlist.NetID {
	return p.OutNet[p.OutOff[g]:p.OutOff[g+1]]
}

// Arc returns the (in -> out) delay of gate g from the flattened arcs.
func (p *Plan) Arc(g netlist.CellID, out, in int) sdf.Delay {
	ni := int(p.InOff[g+1] - p.InOff[g])
	return p.Arcs[int(p.ArcOff[g])+out*ni+in]
}
