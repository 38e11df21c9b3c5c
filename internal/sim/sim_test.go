package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gatesim/internal/event"
	"gatesim/internal/gen"
	"gatesim/internal/liberty"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/plan"
	"gatesim/internal/refsim"
	"gatesim/internal/sdf"
	"gatesim/internal/truthtab"
)

var testLib = mustCompile()

func mustCompile() *truthtab.CompiledLibrary {
	cl, err := truthtab.CompileLibrary(liberty.MustBuiltin())
	if err != nil {
		panic(err)
	}
	return cl
}

// collectEngine drains all committed events per net.
func collectEngine(e *Engine) map[netlist.NetID][]event.Event {
	out := make(map[netlist.NetID][]event.Event)
	for nid := range e.nl.Nets {
		q := e.Events(netlist.NetID(nid))
		for i := q.Start(); i < q.Len(); i++ {
			out[netlist.NetID(nid)] = append(out[netlist.NetID(nid)], q.MustAt(i))
		}
	}
	return out
}

func diffStreams(t *testing.T, nl *netlist.Netlist, want, got map[netlist.NetID][]event.Event, label string) {
	t.Helper()
	for nid := range nl.Nets {
		w, g := want[netlist.NetID(nid)], got[netlist.NetID(nid)]
		if len(w) != len(g) {
			t.Fatalf("%s: net %s: %d events vs %d\nwant %v\ngot  %v",
				label, nl.Nets[nid].Name, len(w), len(g), w, g)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s: net %s event %d: want %+v got %+v",
					label, nl.Nets[nid].Name, i, w[i], g[i])
			}
		}
	}
}

func TestInverterChainWaveform(t *testing.T) {
	lib := liberty.MustBuiltin()
	nl := netlist.New("chain", lib)
	if err := nl.MarkInput(nl.AddNet("a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := nl.AddInstance(fmt.Sprintf("inv%d", i), "INV",
			map[string]string{"A": fmt.Sprintf("n%d", i), "Y": fmt.Sprintf("n%d", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	// n0 is the input: rename by aliasing via a BUF from a.
	if _, err := nl.AddInstance("buf", "BUF", map[string]string{"A": "a", "Y": "n0"}); err != nil {
		t.Fatal(err)
	}
	delays := sdf.Uniform(nl, 10)
	e, err := New(nl, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := nl.Net("a")
	if err := e.Inject(a, 100, logic.V0); err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(a, 200, logic.V1); err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	// n3 = INV(INV(INV(BUF(a)))): inverted, 40ps later. Initial value X;
	// a=0 at 100 makes n3=1 at 140; a=1 at 200 makes n3=0 at 240.
	n3, _ := nl.Net("n3")
	q := e.Events(n3)
	var got []event.Event
	for i := q.Start(); i < q.Len(); i++ {
		got = append(got, q.MustAt(i))
	}
	want := []event.Event{{Time: 140, Val: logic.V1}, {Time: 240, Val: logic.V0}}
	if len(got) != len(want) {
		t.Fatalf("events: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if q.DeterminedUntil() != TimeInf {
		t.Errorf("final watermark %d, want TimeInf", q.DeterminedUntil())
	}
}

func TestToggleFlipFlop(t *testing.T) {
	// DFF_PR with QN fed back to D: divide-by-two of the clock after reset
	// release.
	lib := liberty.MustBuiltin()
	nl := netlist.New("div2", lib)
	for _, p := range []string{"clk", "rst_n"} {
		if err := nl.MarkInput(nl.AddNet(p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nl.AddInstance("ff", "DFF_PR", map[string]string{
		"CLK": "clk", "D": "qn", "RESET_B": "rst_n", "Q": "q", "QN": "qn"}); err != nil {
		t.Fatal(err)
	}
	q, _ := nl.Net("q")
	nl.MarkOutput(q)
	delays := sdf.Uniform(nl, 50)
	e, err := New(nl, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	clk, _ := nl.Net("clk")
	rst, _ := nl.Net("rst_n")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Inject(clk, 0, logic.V0))
	must(e.Inject(rst, 0, logic.V0))
	must(e.Inject(rst, 250, logic.V1))
	for c := 0; c < 4; c++ {
		must(e.Inject(clk, int64(500+1000*c), logic.V1))
		must(e.Inject(clk, int64(1000+1000*c), logic.V0))
	}
	must(e.Finish())

	qq := e.Events(q)
	var got []event.Event
	for i := qq.Start(); i < qq.Len(); i++ {
		got = append(got, qq.MustAt(i))
	}
	// Reset pulls Q to 0 at 0+50. Edges at 500,1500,2500,3500 toggle Q
	// (capturing QN) with 50ps CLK->Q delay.
	want := []event.Event{
		{Time: 50, Val: logic.V0},
		{Time: 550, Val: logic.V1},
		{Time: 1550, Val: logic.V0},
		{Time: 2550, Val: logic.V1},
		{Time: 3550, Val: logic.V0},
	}
	if len(got) != len(want) {
		t.Fatalf("toggle events: %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestStableTimeThroughClockGate reproduces the Fig. 4 phenomenon at system
// level: with the clock gate shut, the gated clock net is determined (stable
// 0) arbitrarily far beyond the point where ungated activity would stop.
func TestStableTimeThroughClockGate(t *testing.T) {
	lib := liberty.MustBuiltin()
	nl := netlist.New("cg", lib)
	for _, p := range []string{"clk", "en"} {
		if err := nl.MarkInput(nl.AddNet(p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nl.AddInstance("cg", "CLKGATE", map[string]string{
		"CLK": "clk", "GATE": "en", "GCLK": "gclk"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddInstance("ff", "DFF_P", map[string]string{
		"CLK": "gclk", "D": "d", "Q": "qout"}); err != nil {
		t.Fatal(err)
	}
	if err := nl.MarkInput(nl.AddNet("d")); err != nil {
		t.Fatal(err)
	}
	e, err := New(nl, testLib, sdf.Uniform(nl, 10), Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	clk, _ := nl.Net("clk")
	en, _ := nl.Net("en")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Inject(en, 0, logic.V0)) // gate shut
	for c := 0; c < 10; c++ {
		must(e.Inject(clk, int64(c*1000+500), logic.V1))
		must(e.Inject(clk, int64(c*1000+1000), logic.V0))
	}
	must(e.Advance(10_500))

	gclk, _ := nl.Net("gclk")
	wm := e.Events(gclk).DeterminedUntil()
	if wm < 10_500 {
		t.Errorf("gated clock watermark %d; the stable-off gate should keep it determined", wm)
	}
	if got := e.Value(gclk, 9_999); got != logic.V0 {
		t.Errorf("gated clock should be stable 0, got %v", got)
	}
	// The downstream FF's output watermark must also be far along even
	// though D was never driven (it is X, determined).
	qout, _ := nl.Net("qout")
	if wm := e.Events(qout).DeterminedUntil(); wm < 10_000 {
		t.Errorf("gated FF output watermark %d; stable time did not propagate", wm)
	}
}

// runBoth runs the engine (given options) and refsim on the same generated
// design/stimuli and compares all event streams exactly.
func runBoth(t *testing.T, d *gen.Design, stim []gen.Change, opts Options) {
	t.Helper()
	delays := gen.Delays(d, 7)

	ref, err := refsim.New(d.Netlist, testLib, delays)
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

	e, err := New(d.Netlist, testLib, delays, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stim {
		if err := e.Inject(s.Net, s.Time, s.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	got := collectEngine(e)
	diffStreams(t, d.Netlist, want, got, fmt.Sprintf("mode=%v threads=%d", opts.Mode, opts.Threads))

	// Liveness: everything fully determined at the end.
	for nid := range d.Netlist.Nets {
		if len(d.Netlist.Nets[nid].Fanout) == 0 && d.Netlist.Nets[nid].Driver < 0 {
			continue
		}
		if wm := e.Events(netlist.NetID(nid)).DeterminedUntil(); wm != TimeInf {
			t.Fatalf("net %s watermark %d after Finish", d.Netlist.Nets[nid].Name, wm)
		}
	}
}

func smallSpec(seed int64) gen.Spec {
	return gen.Spec{
		Name: "small", Seed: seed,
		CombGates: 120, FFs: 24, Latches: 6, ScanFFs: 8, ClockGates: 2,
		Depth: 5, DataInputs: 8, Outputs: 6, ClockPeriodPS: 2000,
	}
}

func TestEngineMatchesRefsimSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d, err := gen.Build(smallSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		stim := gen.Stimuli(d, gen.StimSpec{Cycles: 30, ActivityFactor: 0.6, Seed: seed, ScanBurst: 7})
		runBoth(t, d, stim, Options{Mode: ModeSerial})
	}
}

func TestEngineMatchesRefsimParallel(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		d, err := gen.Build(smallSpec(int64(threads)))
		if err != nil {
			t.Fatal(err)
		}
		stim := gen.Stimuli(d, gen.StimSpec{Cycles: 25, ActivityFactor: 0.7, Seed: 42, ScanBurst: 5})
		runBoth(t, d, stim, Options{Mode: ModeParallel, Threads: threads})
	}
}

func TestEngineMatchesRefsimManycore(t *testing.T) {
	d, err := gen.Build(smallSpec(99))
	if err != nil {
		t.Fatal(err)
	}
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 25, ActivityFactor: 0.5, Seed: 1, ScanBurst: 6})
	runBoth(t, d, stim, Options{Mode: ModeManycore, Threads: 4})
}

// TestStreamedMatchesOneShot drives the same stimuli in time slices with
// checkpoints and trimming between them, observing events through read
// marks, and checks the observed stream equals the one-shot run.
func TestStreamedMatchesOneShot(t *testing.T) {
	d, err := gen.Build(smallSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 40, ActivityFactor: 0.6, Seed: 3, ScanBurst: 9})

	// One-shot reference run.
	e1, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stim {
		if err := e1.Inject(s.Net, s.Time, s.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Finish(); err != nil {
		t.Fatal(err)
	}
	// Only primary outputs are watched in the streamed run.
	want := make(map[netlist.NetID][]event.Event)
	for _, nid := range d.Outs {
		q := e1.Events(nid)
		for i := q.Start(); i < q.Len(); i++ {
			want[nid] = append(want[nid], q.MustAt(i))
		}
	}

	// Streamed run: 4-cycle slices. gen.Stimuli is globally time-sorted.
	e2, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[netlist.NetID][]event.Event)
	read := make(map[netlist.NetID]int64)
	flush := func() {
		for _, nid := range d.Outs {
			q := e2.Events(nid)
			i := read[nid]
			if i < q.Start() {
				t.Fatalf("trimmed below read mark on %s", d.Netlist.Nets[nid].Name)
			}
			for ; i < q.Len(); i++ {
				ev := q.MustAt(i)
				if ev.Time >= q.DeterminedUntil() {
					break
				}
				got[nid] = append(got[nid], ev)
			}
			read[nid] = i
			e2.SetReadMark(nid, i)
		}
	}
	slice := int64(4 * d.Spec.ClockPeriodPS)
	pos := 0
	for start := int64(0); pos < len(stim); start += slice {
		for pos < len(stim) && stim[pos].Time < start+slice {
			if err := e2.Inject(stim[pos].Net, stim[pos].Time, stim[pos].Val); err != nil {
				t.Fatal(err)
			}
			pos++
		}
		if err := e2.Advance(start + slice); err != nil {
			t.Fatal(err)
		}
		flush()
		e2.Checkpoint()
	}
	if err := e2.Finish(); err != nil {
		t.Fatal(err)
	}
	flush()

	for _, nid := range d.Outs {
		w, g := want[nid], got[nid]
		if len(w) != len(g) {
			t.Fatalf("net %s: %d vs %d events\nwant %v\ngot  %v", d.Netlist.Nets[nid].Name, len(w), len(g), w, g)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("net %s event %d: %+v vs %+v", d.Netlist.Nets[nid].Name, i, w[i], g[i])
			}
		}
	}
	// Trimming must actually have reclaimed storage.
	if e2.PoolPages() > e1.PoolPages() {
		t.Logf("note: streamed run used %d pages vs %d one-shot", e2.PoolPages(), e1.PoolPages())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	d, err := gen.Build(smallSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 20, ActivityFactor: 0.8, Seed: 8, ScanBurst: 4})
	var prev map[netlist.NetID][]event.Event
	for run := 0; run < 3; run++ {
		e, err := New(d.Netlist, testLib, delays, Options{Mode: ModeParallel, Threads: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stim {
			if err := e.Inject(s.Net, s.Time, s.Val); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		got := collectEngine(e)
		if prev != nil {
			diffStreams(t, d.Netlist, prev, got, "determinism")
		}
		prev = got
	}
}

func TestInjectValidation(t *testing.T) {
	lib := liberty.MustBuiltin()
	nl := netlist.New("t", lib)
	if err := nl.MarkInput(nl.AddNet("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddInstance("g", "INV", map[string]string{"A": "a", "Y": "y"}); err != nil {
		t.Fatal(err)
	}
	e, err := New(nl, testLib, sdf.Uniform(nl, 5), Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := nl.Net("a")
	y, _ := nl.Net("y")
	if err := e.Inject(y, 10, logic.V1); err == nil {
		t.Error("injecting a driven net should fail")
	}
	if err := e.Inject(a, 10, logic.V1); err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(a, 10, logic.V0); err == nil {
		t.Error("same-time inject should fail")
	}
	if err := e.Inject(a, 5, logic.V0); err == nil {
		t.Error("backwards inject should fail")
	}
	if err := e.Advance(100); err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(a, 50, logic.V0); err == nil {
		t.Error("inject below watermark should fail")
	}
	if err := e.Advance(50); err != nil {
		t.Fatal(err) // shrinking horizon is a harmless no-op
	}
}

func TestAutoModeSelection(t *testing.T) {
	d, err := gen.Build(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	e, err := New(d.Netlist, testLib, delays, Options{Mode: ModeAuto, AutoSerialThreshold: 10, AutoPinThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mode() != ModeManycore {
		t.Errorf("big design should pick manycore, got %v", e.Mode())
	}
	e, err = New(d.Netlist, testLib, delays, Options{Mode: ModeAuto, AutoSerialThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mode() != ModeSerial {
		t.Errorf("tiny threshold should pick serial, got %v", e.Mode())
	}
}

// TestRunStreamMatchesRefsim drives the full streaming facade and checks
// watched primary-output streams against the sequential oracle.
func TestRunStreamMatchesRefsim(t *testing.T) {
	d, err := gen.Build(smallSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 35, ActivityFactor: 0.6, Seed: 2, ScanBurst: 8})

	ref, err := refsim.New(d.Netlist, testLib, delays)
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

	e, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	changes := make([]Change, len(stim))
	for i, s := range stim {
		changes[i] = Change{Net: s.Net, Time: s.Time, Val: s.Val}
	}
	got := map[netlist.NetID][]event.Event{}
	lastT := int64(-1)
	err = e.RunStream(NewSliceSource(changes), StreamConfig{
		SlicePS: 3 * d.Spec.ClockPeriodPS,
		OnEvent: func(nid netlist.NetID, ev event.Event) {
			if ev.Time < lastT {
				t.Fatalf("stream emitted out of order: %d after %d", ev.Time, lastT)
			}
			lastT = ev.Time
			got[nid] = append(got[nid], ev)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nid := range d.Outs {
		w, g := want[nid], got[nid]
		if len(w) != len(g) {
			t.Fatalf("net %s: %d vs %d events", d.Netlist.Nets[nid].Name, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("net %s event %d: %+v vs %+v", d.Netlist.Nets[nid].Name, i, w[i], g[i])
			}
		}
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]Change{{Net: 1, Time: 30}, {Net: 0, Time: 10}, {Net: 2, Time: 20}})
	var times []int64
	for {
		c, err := src.Next()
		if err != nil {
			break
		}
		times = append(times, c.Time)
	}
	if len(times) != 3 || times[0] != 10 || times[2] != 30 {
		t.Errorf("times %v", times)
	}
}

// TestRandomAdvanceSlicing drives the same stimuli with randomized Advance
// boundaries (including degenerate zero-length and repeated horizons) and
// checks the final committed streams equal the one-shot run: slicing must
// never change results, only when they become visible.
func TestRandomAdvanceSlicing(t *testing.T) {
	d, err := gen.Build(smallSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 25, ActivityFactor: 0.7, Seed: 4, ScanBurst: 6})

	oneShot, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stim {
		if err := oneShot.Inject(s.Net, s.Time, s.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := oneShot.Finish(); err != nil {
		t.Fatal(err)
	}
	want := collectEngine(oneShot)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		e, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		horizon := int64(0)
		for pos < len(stim) {
			horizon += rng.Int63n(3 * d.Spec.ClockPeriodPS)
			for pos < len(stim) && stim[pos].Time < horizon {
				if err := e.Inject(stim[pos].Net, stim[pos].Time, stim[pos].Val); err != nil {
					t.Fatal(err)
				}
				pos++
			}
			if err := e.Advance(horizon); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				// Re-advancing to the same (or a lower) horizon is a no-op.
				if err := e.Advance(horizon - rng.Int63n(100)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		got := collectEngine(e)
		diffStreams(t, d.Netlist, want, got, fmt.Sprintf("slicing trial %d", trial))
	}
}

// TestCounterGolden is the end-to-end functional oracle: an n-bit counter
// built from library cells must read exactly k (mod 2^n) after k clock
// edges, through every layer of the stack (library compilation, netlist,
// delays, stable-time engine).
func TestCounterGolden(t *testing.T) {
	const bits = 6
	const cycles = 80 // wraps the 6-bit counter once
	d, err := gen.BuildCounter(bits)
	if err != nil {
		t.Fatal(err)
	}
	delays := sdf.Uniform(d.Netlist, 30)
	for _, mode := range []Mode{ModeSerial, ModeParallel} {
		e, err := New(d.Netlist, testLib, delays, Options{Mode: mode, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range gen.CounterStimuli(d, cycles) {
			if err := e.Inject(s.Net, s.Time, s.Val); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		period := d.Spec.ClockPeriodPS
		for k := 1; k <= cycles; k++ {
			// Sample after edge k's CLK->Q plus the XOR/AND settle time.
			at := int64(k-1)*period + period/2 + 300
			want := int64(k) % (1 << bits)
			var got int64
			for bit, nid := range d.Outs {
				v := e.Value(nid, at)
				switch v {
				case logic.V1:
					got |= 1 << bit
				case logic.V0:
				default:
					t.Fatalf("mode %v: q%d at cycle %d is %v", mode, bit, k, v)
				}
			}
			if got != want {
				t.Fatalf("mode %v: after %d edges counter reads %d, want %d", mode, k, got, want)
			}
		}
	}
}

// TestStreamedMemoryBounded validates the streamed-I/O claim (§III-D.2):
// event-page demand must not grow with trace length, because slices are
// trimmed as the stream advances.
func TestStreamedMemoryBounded(t *testing.T) {
	d, err := gen.Build(smallSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	pages := func(cycles int) int64 {
		e, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
		if err != nil {
			t.Fatal(err)
		}
		stim := gen.Stimuli(d, gen.StimSpec{Cycles: cycles, ActivityFactor: 0.6, Seed: 9, ScanBurst: 7})
		changes := make([]Change, len(stim))
		for i, s := range stim {
			changes[i] = Change{Net: s.Net, Time: s.Time, Val: s.Val}
		}
		if err := e.RunStream(NewSliceSource(changes), StreamConfig{SlicePS: 4 * d.Spec.ClockPeriodPS}); err != nil {
			t.Fatal(err)
		}
		return e.PoolPages()
	}
	short := pages(20)
	long := pages(200)
	if long > short*3 {
		t.Errorf("page demand grows with trace length: %d pages for 20 cycles, %d for 200", short, long)
	}
	t.Logf("pages: 20 cycles -> %d, 200 cycles -> %d", short, long)
}

// TestSnapshotRoundTrip interrupts a run at a converged point, saves a
// snapshot, restores it into a fresh engine, finishes the stimulus there,
// and checks the combined event streams equal an uninterrupted run.
func TestSnapshotRoundTrip(t *testing.T) {
	d, err := gen.Build(smallSpec(47))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 30, ActivityFactor: 0.6, Seed: 5, ScanBurst: 7})

	// Uninterrupted reference.
	ref, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stim {
		if err := ref.Inject(s.Net, s.Time, s.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Finish(); err != nil {
		t.Fatal(err)
	}
	want := collectEngine(ref)

	// First half on engine A, snapshot, second half on engine B.
	cut := 15 * d.Spec.ClockPeriodPS
	a, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for ; pos < len(stim) && stim[pos].Time < cut; pos++ {
		if err := a.Inject(stim[pos].Net, stim[pos].Time, stim[pos].Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Advance(cut); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	b, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for ; pos < len(stim); pos++ {
		if err := b.Inject(stim[pos].Net, stim[pos].Time, stim[pos].Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	got := collectEngine(b)
	diffStreams(t, d.Netlist, want, got, "snapshot round trip")
}

func TestSnapshotRejectsWrongDesign(t *testing.T) {
	d1, _ := gen.Build(smallSpec(1))
	d2, _ := gen.Build(gen.Spec{Name: "other", Seed: 2, CombGates: 30, FFs: 4,
		Depth: 3, DataInputs: 4, Outputs: 2})
	e1, err := New(d1.Netlist, testLib, gen.Delays(d1, 7), Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(d2.Netlist, testLib, gen.Delays(d2, 7), Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e1.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e2.LoadSnapshot(&buf); err == nil {
		t.Error("loading a foreign snapshot must fail")
	}
	if err := e2.LoadSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage must fail to decode")
	}
}

// TestEngineMatchesRefsimMultiClock exercises two asynchronous clock
// domains plus 2-FF synchronizers on the crossings.
func TestEngineMatchesRefsimMultiClock(t *testing.T) {
	spec := smallSpec(71)
	spec.ClockPeriod2PS = 3700 // coprime-ish with the 2000ps main clock
	d, err := gen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 30, ActivityFactor: 0.6, Seed: 6, ScanBurst: 9})
	runBoth(t, d, stim, Options{Mode: ModeSerial})
	runBoth(t, d, stim, Options{Mode: ModeParallel, Threads: 4})
}

func TestRunStreamEmptyStimulus(t *testing.T) {
	d, err := gen.Build(smallSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Netlist, testLib, gen.Delays(d, 7), Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = e.RunStream(NewSliceSource(nil), StreamConfig{
		OnEvent: func(nid netlist.NetID, ev event.Event) { count++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	// With no stimulus everything stays at its initial value: no events,
	// but the run must terminate and fully determine the design.
	if count != 0 {
		t.Errorf("events from empty stimulus: %d", count)
	}
	for nid := range d.Netlist.Nets {
		if wm := e.Events(netlist.NetID(nid)).DeterminedUntil(); wm != TimeInf {
			t.Fatalf("net %s not finalized (wm %d)", d.Netlist.Nets[nid].Name, wm)
		}
	}
}

// TestNewFromPlanAllocs pins the flat-array construction guarantee: building
// an engine from a prebuilt plan allocates a fixed number of arrays, not
// O(gates) per-gate slices. The bound is far below the design's gate count,
// so any reintroduction of per-gate allocation trips it immediately.
func TestNewFromPlanAllocs(t *testing.T) {
	d, err := gen.Build(smallSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(d.Netlist, testLib, gen.Delays(d, 7))
	if err != nil {
		t.Fatal(err)
	}
	gates := p.NumGates()
	if gates < 100 {
		t.Fatalf("design too small (%d gates) to distinguish O(arrays) from O(gates)", gates)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e, err := NewFromPlan(p, Options{Mode: ModeSerial})
		if err != nil {
			t.Fatal(err)
		}
		_ = e
	})
	// ~30 allocations today (engine struct, the flat per-slot arrays, the
	// executor and one scratch). 64 leaves headroom while staying far below
	// the gate count.
	if allocs > 64 {
		t.Errorf("NewFromPlan allocates %.0f objects for %d gates; want O(arrays), <= 64", allocs, gates)
	}
	t.Logf("NewFromPlan: %.0f allocs for %d gates, %d nets", allocs, gates, p.NumNets())
}

func TestValueBeyondWatermark(t *testing.T) {
	d, err := gen.Build(smallSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Netlist, testLib, gen.Delays(d, 7), Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing advanced yet: every value beyond watermark 0 reads U.
	if got := e.Value(d.Clk, 100); got != logic.VU {
		t.Errorf("unadvanced value = %v, want U", got)
	}
}

// expiredArcFixture builds two cones in which one input of a gate reaches
// its new value through a slow path and the other through a fast one, so a
// slice boundary can leave the fast input's watermark at or below the
// instant both inputs change:
//
//	a -> bufA (40) -> na \
//	                       XNOR2 x0 -> y   (A->Y 20 ps, B->Y 40 ps)
//	b -> bufB (50) -> nb /
//	c -> bufC (10) -> nc  (CLK)     \
//	r -> bufR (50) -> nr  (RESET_B)  DFF_PR ff0 -> q, qn
//	d                     (D)       /   (CLK->Q/QN 15 ps, RESET_B->Q/QN 45 ps)
//
// x0 is a ClassComb1 gate and ff0 a ClassSeq one, so both visit kernels
// (and their lane twins) see the case.
func expiredArcFixture(t *testing.T) (*netlist.Netlist, *sdf.Delays) {
	t.Helper()
	nl := netlist.New("expiredarc", liberty.MustBuiltin())
	for _, p := range []string{"a", "b", "c", "r", "d"} {
		if err := nl.MarkInput(nl.AddNet(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, inst := range []struct {
		name, cell string
		pins       map[string]string
	}{
		{"bufA", "BUF", map[string]string{"A": "a", "Y": "na"}},
		{"bufB", "BUF", map[string]string{"A": "b", "Y": "nb"}},
		{"bufC", "BUF", map[string]string{"A": "c", "Y": "nc"}},
		{"bufR", "BUF", map[string]string{"A": "r", "Y": "nr"}},
		{"x0", "XNOR2", map[string]string{"A": "na", "B": "nb", "Y": "y"}},
		{"ff0", "DFF_PR", map[string]string{"CLK": "nc", "RESET_B": "nr", "D": "d", "Q": "q", "QN": "qn"}},
	} {
		if _, err := nl.AddInstance(inst.name, inst.cell, inst.pins); err != nil {
			t.Fatal(err)
		}
	}
	f, err := sdf.Parse(`(DELAYFILE (TIMESCALE 1ps)
 (CELL (CELLTYPE "BUF") (INSTANCE bufA) (DELAY (ABSOLUTE (IOPATH A Y (40) (40)))))
 (CELL (CELLTYPE "BUF") (INSTANCE bufB) (DELAY (ABSOLUTE (IOPATH A Y (50) (50)))))
 (CELL (CELLTYPE "BUF") (INSTANCE bufC) (DELAY (ABSOLUTE (IOPATH A Y (10) (10)))))
 (CELL (CELLTYPE "BUF") (INSTANCE bufR) (DELAY (ABSOLUTE (IOPATH A Y (50) (50)))))
 (CELL (CELLTYPE "XNOR2") (INSTANCE x0) (DELAY (ABSOLUTE
   (IOPATH A Y (20) (20)) (IOPATH B Y (40) (40)))))
 (CELL (CELLTYPE "DFF_PR") (INSTANCE ff0) (DELAY (ABSOLUTE
   (IOPATH CLK Q (15) (15)) (IOPATH CLK QN (15) (15))
   (IOPATH RESET_B Q (45) (45)) (IOPATH RESET_B QN (45) (45)))))
)`)
	if err != nil {
		t.Fatal(err)
	}
	delays, err := sdf.Apply(f, nl, sdf.Delay{Rise: 30, Fall: 30})
	if err != nil {
		t.Fatal(err)
	}
	return nl, delays
}

// TestExpiredInputFasterArc pins the delay-selection rule for a change
// point whose other inputs have expired. With 1000 ps slices, the first
// slice commits nb -> X and nr -> 0 at 1040 while na is determined only
// until 1040 and nc until 1010; the second slice brings na -> X and nc -> 1
// at the same instant 1040. The output was already determined in the first
// slice (X through the XNOR whatever A does; reset dominates the flop), but refsim
// schedules it through the faster of the two arcs changing at 1040 — so
// the engine may not consume that point while a faster input could still
// change there. Scalar and lane runs must both match refsim.
func TestExpiredInputFasterArc(t *testing.T) {
	nl, delays := expiredArcFixture(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	net := func(name string) netlist.NetID {
		nid, ok := nl.Net(name)
		if !ok {
			t.Fatalf("net %s missing", name)
		}
		return nid
	}
	stim := []Change{
		{net("a"), 0, logic.V0}, {net("b"), 0, logic.V0}, {net("c"), 0, logic.V0},
		{net("r"), 0, logic.V1}, {net("d"), 0, logic.V1},
		{net("c"), 100, logic.V1}, {net("c"), 300, logic.V0},
		{net("b"), 990, logic.VX}, {net("r"), 990, logic.V0},
		{net("a"), 1000, logic.VX}, {net("c"), 1030, logic.V1},
	}
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
	if len(want[net("y")]) == 0 || len(want[net("q")]) < 2 {
		t.Fatalf("fixture does not toggle y and q: %v", want)
	}
	all := make([]netlist.NetID, len(nl.Nets))
	for i := range all {
		all[i] = netlist.NetID(i)
	}

	e, err := NewFromPlan(p, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got := map[netlist.NetID][]event.Event{}
	err = e.RunStream(NewSliceSource(stim), StreamConfig{SlicePS: 1000, Watch: all,
		OnEvent: func(nid netlist.NetID, ev event.Event) { got[nid] = append(got[nid], ev) }})
	if err != nil {
		t.Fatal(err)
	}
	diffStreams(t, nl, want, got, "scalar vs refsim")

	perLane := [][]Change{stim, stim}
	merged, err := MergeLaneChanges(perLane)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewFromPlan(p, Options{Mode: ModeSerial, Lanes: len(perLane)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RunLaneStream(merged, LaneStreamConfig{SlicePS: 1000, Watch: all}); err != nil {
		t.Fatal(err)
	}
	for ln := range perLane {
		lanes := map[netlist.NetID][]event.Event{}
		for _, nid := range all {
			lanes[nid] = l.LaneEvents(nid, ln)
		}
		diffStreams(t, nl, want, lanes, fmt.Sprintf("lane %d vs refsim", ln))
	}
}

// TestVisitIgnoresEventsPastWatermark pins the reader side of the
// concurrent commit protocol. Under pool workers a driver in the same fused
// level group appends events before it publishes the watermark covering
// them, so a reader can find an event at or past the input watermark it
// loaded. The reader must leave such an event for a later visit and treat
// the input as U from its watermark on; consuming it would let the replay
// run past the input's expiry and publish a watermark it cannot know. The
// test recreates that state on one goroutine by injecting a primary-input
// event exactly at the input's watermark and visiting the readers directly.
// y = AND2(a, b) and the HA's outputs are determined with a at its new
// value 0 and b = X, but not with a undetermined, so both the comb1 kernel
// and the generic interpreter must stop at the watermark.
func TestVisitIgnoresEventsPastWatermark(t *testing.T) {
	nl := netlist.New("pastwm", liberty.MustBuiltin())
	for _, p := range []string{"a", "b"} {
		if err := nl.MarkInput(nl.AddNet(p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nl.AddInstance("and0", "AND2", map[string]string{"A": "a", "B": "b", "Y": "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddInstance("ha0", "HA", map[string]string{"A": "a", "B": "b", "SUM": "s", "COUT": "co"}); err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(nl, testLib, sdf.Uniform(nl, 10))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromPlan(p, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := nl.Net("a")
	b, _ := nl.Net("b")
	// b's later event keeps b determined past a's watermark, so only a
	// expires at w.
	for _, c := range []Change{{a, 10, logic.V1}, {b, 10, logic.VX}, {b, 200, logic.V1}} {
		if err := e.Inject(c.Net, c.Time, c.Val); err != nil {
			t.Fatal(err)
		}
	}
	const w = 50
	if err := e.Advance(w); err != nil {
		t.Fatal(err)
	}
	if got := e.Events(a).DeterminedUntil(); got != w {
		t.Fatalf("input watermark = %d, want %d", got, w)
	}
	if err := e.Inject(a, w, logic.V0); err != nil {
		t.Fatal(err)
	}
	sc := e.exec.scratches[0]
	for _, name := range []string{"and0", "ha0"} {
		cell := cellByName(t, nl, name)
		sp := &p.Scripts[p.SegOf[cell]]
		e.visitGate(&sp.Ops[p.BitOf[cell]-sp.BitOff], sp.Kernel == truthtab.ClassComb1, sc)
		if got := e.gate[cell].detUntil.Load(); got != w {
			t.Errorf("%s: detUntil = %d after a visit that found an event at its input watermark %d, want %d", name, got, w, w)
		}
	}
	for _, out := range []string{"y", "s", "co"} {
		nid, _ := nl.Net(out)
		if got := e.Events(nid).DeterminedUntil(); got > w+10 {
			t.Errorf("%s: watermark %d published past input watermark %d + delay", out, got, w)
		}
	}
}
