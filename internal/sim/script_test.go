package sim

import (
	"bytes"
	"fmt"
	"testing"

	"gatesim/internal/event"
	"gatesim/internal/gen"
	"gatesim/internal/liberty"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/obs"
	"gatesim/internal/plan"
	"gatesim/internal/sdf"
)

// TestScriptMixedEquivalence checks, on the mixed-kernel fixture, that the
// script-replay engine streamed through RunStream — so every slice ends
// with a checkpoint round folding and trimming history — emits exactly the
// reference simulator's events on every net, across all execution modes.
func TestScriptMixedEquivalence(t *testing.T) {
	force4Procs(t)
	nl, delays := mixedKernelDesign(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := mixedKernelStim(nl, t)
	want := refCollect(t, p, stim)
	all := make([]netlist.NetID, len(nl.Nets))
	for i := range all {
		all[i] = netlist.NetID(i)
	}
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeManycore} {
		e, err := NewFromPlan(p, pooledOpts(mode))
		if err != nil {
			t.Fatal(err)
		}
		got := map[netlist.NetID][]event.Event{}
		err = e.RunStream(NewSliceSource(streamChanges(stim)), StreamConfig{SlicePS: 3000, Watch: all,
			OnEvent: func(nid netlist.NetID, ev event.Event) { got[nid] = append(got[nid], ev) }})
		if err != nil {
			t.Fatal(err)
		}
		if e.Stats().Checkpoints == 0 {
			t.Errorf("mode=%v: streamed run took no checkpoints", mode)
		}
		e.Close()
		diffStreams(t, nl, want, got, fmt.Sprintf("streamed scripts mode=%v vs refsim", mode))
	}
}

// TestScriptGeneratedEquivalence repeats the refsim stream comparison on
// generated designs (FFs, latches, scan chains, clock gates, deep comb
// cloud) across seeds and modes.
func TestScriptGeneratedEquivalence(t *testing.T) {
	force4Procs(t)
	for seed := int64(0); seed < 3; seed++ {
		d, err := gen.Build(smallSpec(seed + 900))
		if err != nil {
			t.Fatal(err)
		}
		delays := gen.Delays(d, 11)
		p, err := plan.Build(d.Netlist, testLib, delays)
		if err != nil {
			t.Fatal(err)
		}
		stim := gen.Stimuli(d, gen.StimSpec{Cycles: 20, ActivityFactor: 0.7, Seed: seed, ScanBurst: 5})
		want := refCollect(t, p, stim)
		for _, mode := range []Mode{ModeSerial, ModeParallel, ModeManycore} {
			got := runCollect(t, p, stim, pooledOpts(mode))
			diffStreams(t, d.Netlist, want, got, fmt.Sprintf("seed=%d mode=%v scripts vs refsim", seed, mode))
		}
	}
}

// TestScriptFusedChainPooled drives a deep single-gate-per-level chain —
// the shape plan-time level fusion collapses hardest — through the pooled
// executors and checks the fused script schedule against the reference.
func TestScriptFusedChainPooled(t *testing.T) {
	force4Procs(t)
	lib := liberty.MustBuiltin()
	nl := netlist.New("chain", lib)
	if err := nl.MarkInput(nl.AddNet("n0")); err != nil {
		t.Fatal(err)
	}
	const depth = 24
	for i := 1; i <= depth; i++ {
		if _, err := nl.AddInstance(fmt.Sprintf("g%d", i), "INV",
			map[string]string{"A": fmt.Sprintf("n%d", i-1), "Y": fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := plan.Build(nl, testLib, sdf.Uniform(nl, 7))
	if err != nil {
		t.Fatal(err)
	}
	if p.FusedLevels == 0 {
		t.Fatal("deep single-gate chain induced no plan-time level fusion")
	}
	n0, _ := nl.Net("n0")
	var stim []gen.Change
	for i := int64(0); i < 16; i++ {
		stim = append(stim, gen.Change{Net: n0, Time: 1000 + i*400, Val: logic.Value(i % 2)})
	}

	want := refCollect(t, p, stim)
	for _, mode := range []Mode{ModeParallel, ModeManycore} {
		got := runCollect(t, p, stim, pooledOpts(mode))
		diffStreams(t, nl, want, got, fmt.Sprintf("fused chain mode=%v vs refsim", mode))
	}
}

// TestScriptCounters checks the script observability: ScriptSegments
// reports the compiled schedule size, SegmentsSkipped counts clean-segment skips on multi-sweep runs, and the
// obs counter mirrors the Stats field.
func TestScriptCounters(t *testing.T) {
	nl, delays := mixedKernelDesign(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := mixedKernelStim(nl, t)

	reg := obs.NewRegistry()
	e, err := NewFromPlan(p, Options{Mode: ModeSerial, Metrics: reg})
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
	if st.ScriptSegments == 0 {
		t.Error("scripts on: ScriptSegments = 0")
	}
	if st.SegmentsSkipped == 0 {
		t.Error("multi-sweep run skipped no clean segments")
	}
	if got := reg.Snapshot().Counters["sim.segments_skipped"]; got != st.SegmentsSkipped {
		t.Errorf("sim.segments_skipped counter = %d, Stats = %d", got, st.SegmentsSkipped)
	}

}

// TestScriptSnapshotCrossRestore saves a snapshot from an engine in one
// execution mode and restores it into an engine in another, in both
// directions. Snapshots capture only persistent slot arrays — no script,
// dirty-bitset or worker state — so the combined run must match a one-shot
// reference whichever mode runs either half.
func TestScriptSnapshotCrossRestore(t *testing.T) {
	force4Procs(t)
	nl, delays := mixedKernelDesign(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := mixedKernelStim(nl, t)
	const cut = 12500 // after cycle 5 settles, before cycle 6 begins
	want := runCollect(t, p, stim, Options{Mode: ModeSerial})

	for _, dir := range []struct {
		label      string
		from, into Options
	}{
		{"serial->manycore", Options{Mode: ModeSerial}, pooledOpts(ModeManycore)},
		{"parallel->serial", pooledOpts(ModeParallel), Options{Mode: ModeSerial}},
	} {
		e1, err := NewFromPlan(p, dir.from)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stim {
			if s.Time >= cut {
				continue
			}
			if err := e1.Inject(s.Net, s.Time, s.Val); err != nil {
				t.Fatal(err)
			}
		}
		if err := e1.Advance(cut); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e1.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		e1.Close()

		e2, err := NewFromPlan(p, dir.into)
		if err != nil {
			t.Fatal(err)
		}
		if err := e2.LoadSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		for _, s := range stim {
			if s.Time < cut {
				continue
			}
			if err := e2.Inject(s.Net, s.Time, s.Val); err != nil {
				t.Fatal(err)
			}
		}
		if err := e2.Finish(); err != nil {
			t.Fatal(err)
		}
		diffStreams(t, nl, want, collectEngine(e2), dir.label)
		e2.Close()
	}
}

// fuzzCombNetlist decodes a feed-forward cloud of packable single-output
// gates from fuzz bytes: each pair of bytes adds one INV/NAND2/XOR2 whose
// fanins are drawn from the nets defined so far, so any input is a valid
// acyclic netlist.
func fuzzCombNetlist(data []byte) (*netlist.Netlist, error) {
	lib := liberty.MustBuiltin()
	nl := netlist.New("fuzzcomb", lib)
	nets := []string{"i0", "i1", "i2"}
	for _, in := range nets {
		if err := nl.MarkInput(nl.AddNet(in)); err != nil {
			return nil, err
		}
	}
	const maxGates = 40
	for g := 0; g+1 < len(data)/2 && g < maxGates; g++ {
		kind, pick := data[2*g], data[2*g+1]
		a := nets[int(pick)%len(nets)]
		b := nets[int(pick/3)%len(nets)]
		out := fmt.Sprintf("y%d", g)
		var err error
		switch kind % 3 {
		case 0:
			_, err = nl.AddInstance(fmt.Sprintf("g%d", g), "INV",
				map[string]string{"A": a, "Y": out})
		case 1:
			_, err = nl.AddInstance(fmt.Sprintf("g%d", g), "NAND2",
				map[string]string{"A": a, "B": b, "Y": out})
		default:
			_, err = nl.AddInstance(fmt.Sprintf("g%d", g), "XOR2",
				map[string]string{"A": a, "B": b, "Y": out})
		}
		if err != nil {
			return nil, err
		}
		nets = append(nets, out)
	}
	return nl, nil
}

// FuzzScriptComb1Segment builds random comb1-only netlists and checks the
// compiled script replay against the reference simulator: the committed
// event streams must be byte-identical.
func FuzzScriptComb1Segment(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 5})
	f.Add([]byte{1, 4, 1, 7, 2, 9, 0, 2, 1, 3, 2, 8, 0, 1, 1, 6})
	f.Add(bytes.Repeat([]byte{2, 5, 0, 3}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes for a gate")
		}
		nl, err := fuzzCombNetlist(data)
		if err != nil {
			t.Skip(err) // decoded an invalid netlist shape; not a sim bug
		}
		p, err := plan.Build(nl, testLib, sdf.Uniform(nl, int64(1+data[0]%9)))
		if err != nil {
			t.Skip(err)
		}
		// Toggle the three inputs at staggered, byte-derived offsets.
		var stim []gen.Change
		for i := 0; i < 3; i++ {
			nid, ok := nl.Net(fmt.Sprintf("i%d", i))
			if !ok {
				t.Fatalf("input i%d missing", i)
			}
			step := int64(200 + 100*int(data[i%len(data)]%7))
			for c := int64(0); c < 8; c++ {
				stim = append(stim, gen.Change{Net: nid, Time: 500 + int64(i)*130 + c*step, Val: logic.Value(c % 2)})
			}
		}
		scripted := runCollect(t, p, stim, Options{Mode: ModeSerial})
		diffStreams(t, nl, refCollect(t, p, stim), scripted, "fuzz scripts vs refsim")
	})
}
