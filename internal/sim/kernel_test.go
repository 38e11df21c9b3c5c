package sim

import (
	"fmt"
	"testing"

	"gatesim/internal/event"
	"gatesim/internal/gen"
	"gatesim/internal/liberty"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/obs"
	"gatesim/internal/plan"
	"gatesim/internal/refsim"
	"gatesim/internal/sdf"
	"gatesim/internal/truthtab"
)

// mixedKernelDesign builds a small netlist that exercises both kernel
// classes inside the combinational levels — FA/HA are stateless two-output
// cells (ClassSeq) wired between packable single-output gates (ClassComb1) —
// plus a real sequential phase (DFF).
func mixedKernelDesign(t *testing.T) (*netlist.Netlist, *sdf.Delays) {
	t.Helper()
	lib := liberty.MustBuiltin()
	nl := netlist.New("mixed", lib)
	for _, p := range []string{"a", "b", "cin", "clk"} {
		if err := nl.MarkInput(nl.AddNet(p)); err != nil {
			t.Fatal(err)
		}
	}
	add := func(name, cell string, pins map[string]string) {
		t.Helper()
		if _, err := nl.AddInstance(name, cell, pins); err != nil {
			t.Fatal(err)
		}
	}
	add("fa0", "FA", map[string]string{"A": "a", "B": "b", "CIN": "cin", "SUM": "s0", "COUT": "c0"})
	add("inv0", "INV", map[string]string{"A": "s0", "Y": "n0"})
	add("ha0", "HA", map[string]string{"A": "n0", "B": "c0", "SUM": "s1", "COUT": "c1"})
	add("nand0", "NAND2", map[string]string{"A": "s1", "B": "c1", "Y": "n1"})
	add("xor0", "XOR2", map[string]string{"A": "n1", "B": "c0", "Y": "n2"})
	add("ff0", "DFF_P", map[string]string{"CLK": "clk", "D": "n2", "Q": "q0", "QN": "qn0"})
	add("nand1", "NAND2", map[string]string{"A": "q0", "B": "n1", "Y": "out"})
	return nl, sdf.Uniform(nl, 10)
}

func mixedKernelStim(nl *netlist.Netlist, t *testing.T) []gen.Change {
	t.Helper()
	net := func(name string) netlist.NetID {
		nid, ok := nl.Net(name)
		if !ok {
			t.Fatalf("net %s missing", name)
		}
		return nid
	}
	var stim []gen.Change
	for cyc := int64(0); cyc < 12; cyc++ {
		base := 1000 + cyc*2000
		stim = append(stim,
			gen.Change{Net: net("clk"), Time: base, Val: logic.V1},
			gen.Change{Net: net("clk"), Time: base + 1000, Val: logic.V0},
			gen.Change{Net: net("a"), Time: base + 300, Val: logic.Value(cyc % 2)},
			gen.Change{Net: net("b"), Time: base + 500, Val: logic.Value((cyc / 2) % 2)},
			gen.Change{Net: net("cin"), Time: base + 700, Val: logic.Value((cyc / 3) % 2)},
		)
	}
	return stim
}

// runCollect runs one engine over the plan and returns its event streams.
func runCollect(t *testing.T, p *plan.Plan, stim []gen.Change, opts Options) map[netlist.NetID][]event.Event {
	t.Helper()
	e, err := NewFromPlan(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range stim {
		if err := e.Inject(s.Net, s.Time, s.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return collectEngine(e)
}

// refCollect runs the reference simulator over the plan and returns its
// committed event streams: the oracle every engine stream is diffed against.
func refCollect(t *testing.T, p *plan.Plan, stim []gen.Change) refsim.Collect {
	t.Helper()
	ref, err := refsim.NewFromPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	want := refsim.Collect{}
	rstim := make([]refsim.Stim, len(stim))
	for i, s := range stim {
		rstim[i] = refsim.Stim{Net: s.Net, Time: s.Time, Val: s.Val}
	}
	if err := ref.Run(rstim, want.Add); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestKernelMixedEquivalence checks, on a fixture whose levels mix both
// kernel classes, that the engine and the reference simulator produce
// byte-identical committed event streams across all execution modes.
func TestKernelMixedEquivalence(t *testing.T) {
	force4Procs(t)
	nl, delays := mixedKernelDesign(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := mixedKernelStim(nl, t)
	want := refCollect(t, p, stim)
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeManycore} {
		got := runCollect(t, p, stim, pooledOpts(mode))
		diffStreams(t, nl, want, got, fmt.Sprintf("mode=%v vs refsim", mode))
	}
}

// TestKernelGeneratedEquivalence repeats the refsim stream comparison on
// larger generated designs (FFs, latches, scan chains, clock gates and a
// deep comb cloud) across seeds.
func TestKernelGeneratedEquivalence(t *testing.T) {
	force4Procs(t)
	for seed := int64(0); seed < 3; seed++ {
		d, err := gen.Build(smallSpec(seed + 700))
		if err != nil {
			t.Fatal(err)
		}
		delays := gen.Delays(d, 7)
		p, err := plan.Build(d.Netlist, testLib, delays)
		if err != nil {
			t.Fatal(err)
		}
		stim := gen.Stimuli(d, gen.StimSpec{Cycles: 20, ActivityFactor: 0.7, Seed: seed, ScanBurst: 5})
		want := refCollect(t, p, stim)
		for _, mode := range []Mode{ModeSerial, ModeParallel} {
			got := runCollect(t, p, stim, pooledOpts(mode))
			diffStreams(t, d.Netlist, want, got, fmt.Sprintf("seed=%d mode=%v vs refsim", seed, mode))
		}
	}
}

// TestKernelCounters checks the per-kernel visit/query split: both classes
// are exercised and the splits sum to the totals. The obs counters must
// mirror the Stats fields.
func TestKernelCounters(t *testing.T) {
	nl, delays := mixedKernelDesign(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := mixedKernelStim(nl, t)

	reg := obs.NewRegistry()
	opts := Options{Mode: ModeSerial, Metrics: reg}
	e, err := NewFromPlan(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range stim {
		if err := e.Inject(s.Net, s.Time, s.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.VisitsByKernel[truthtab.ClassComb1] == 0 || st.VisitsByKernel[truthtab.ClassSeq] == 0 {
		t.Fatalf("expected visits in both kernel classes, got %v", st.VisitsByKernel)
	}
	if sum := st.VisitsByKernel[truthtab.ClassSeq] + st.VisitsByKernel[truthtab.ClassComb1]; sum != st.Visits {
		t.Errorf("VisitsByKernel sums to %d, Visits = %d", sum, st.Visits)
	}
	if sum := st.QueriesByKernel[truthtab.ClassSeq] + st.QueriesByKernel[truthtab.ClassComb1]; sum != st.Queries {
		t.Errorf("QueriesByKernel sums to %d, Queries = %d", sum, st.Queries)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim.visits_by_kernel.comb1"]; got != st.VisitsByKernel[truthtab.ClassComb1] {
		t.Errorf("sim.visits_by_kernel.comb1 counter = %d, Stats = %d", got, st.VisitsByKernel[truthtab.ClassComb1])
	}
	if got := snap.Counters["sim.queries_by_kernel.seq"]; got != st.QueriesByKernel[truthtab.ClassSeq] {
		t.Errorf("sim.queries_by_kernel.seq counter = %d, Stats = %d", got, st.QueriesByKernel[truthtab.ClassSeq])
	}

}

// TestKernelSegments sanity-checks the compiled schedule the engine adopts
// from the plan: stable kernel order within a level, a barrier on each
// level's first bucket except the plan-time fused levels (whose count must
// match Plan.FusedLevels), every gate appearing exactly once, and every
// segment backed by its script.
func TestKernelSegments(t *testing.T) {
	nl, delays := mixedKernelDesign(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromPlan(p, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	seen := make(map[netlist.CellID]bool)
	lastLevel := -2
	fused := 0
	for i := range e.sweepSegs {
		seg := &e.sweepSegs[i]
		if seg.script == nil || len(seg.script.Ops) == 0 {
			t.Fatalf("segment %d has no script", i)
		}
		if seg.level != lastLevel {
			if !seg.barrier {
				fused++
			}
			if seg.level < lastLevel {
				t.Errorf("segment %d level %d after level %d", i, seg.level, lastLevel)
			}
			lastLevel = seg.level
		} else if seg.barrier {
			t.Errorf("segment %d repeats a barrier inside level %d", i, seg.level)
		}
		for _, op := range seg.script.Ops {
			if seen[op.Gate] {
				t.Fatalf("gate %d appears in two segments", op.Gate)
			}
			seen[op.Gate] = true
			if got := p.Kernel(op.Gate); got != seg.kernel {
				t.Errorf("gate %d class %v in a %v segment", op.Gate, got, seg.kernel)
			}
		}
	}
	if len(seen) != p.NumGates() {
		t.Fatalf("segments cover %d gates, want %d", len(seen), p.NumGates())
	}
	if fused != p.FusedLevels {
		t.Errorf("%d levels open without a barrier, Plan.FusedLevels = %d", fused, p.FusedLevels)
	}
	// The fixture is tiny, so its shallow comb levels must actually fuse —
	// otherwise the fused-schedule case is untested.
	if p.FusedLevels == 0 {
		t.Error("fixture induced no plan-time level fusion")
	}
	// The fixture must actually produce a seq bucket inside a comb level
	// (the HA/FA cells) — otherwise the mixed-level case is untested.
	mixed := false
	for i := range e.sweepSegs {
		if e.sweepSegs[i].level >= 0 && e.sweepSegs[i].kernel == truthtab.ClassSeq {
			mixed = true
		}
	}
	if !mixed {
		t.Error("fixture has no ClassSeq bucket inside a combinational level")
	}
}
