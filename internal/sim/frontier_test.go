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

// runCollectSliced is runCollect with the advance split into horizon slices,
// the way RunStream drives the engine. The slicing is what exercises the
// frontier plane: each Advance past the injected events moves primary-input
// watermarks with no new events, and quiet comb clouds downstream must be
// settled through staged frontier commits rather than re-visits.
func runCollectSliced(t *testing.T, p *plan.Plan, stim []gen.Change, opts Options, slice, end int64) map[netlist.NetID][]event.Event {
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
	for h := slice; h < end; h += slice {
		if err := e.Advance(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return collectEngine(e)
}

// TestFrontierMixedEquivalence checks, on the mixed-kernel fixture under
// sliced advances, that the engine matches the reference simulator across
// all execution modes.
func TestFrontierMixedEquivalence(t *testing.T) {
	force4Procs(t)
	nl, delays := mixedKernelDesign(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := mixedKernelStim(nl, t)
	want := refCollect(t, p, stim)
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeManycore} {
		got := runCollectSliced(t, p, stim, pooledOpts(mode), 2000, 30000)
		diffStreams(t, nl, want, got, fmt.Sprintf("mode=%v sliced vs refsim", mode))
	}
}

// TestFrontierGeneratedEquivalence repeats the sliced refsim stream
// comparison on larger generated designs (FFs, latches, scan chains, clock
// gates, deep comb clouds) across seeds.
func TestFrontierGeneratedEquivalence(t *testing.T) {
	force4Procs(t)
	for seed := int64(0); seed < 3; seed++ {
		d, err := gen.Build(smallSpec(seed + 900))
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
			got := runCollectSliced(t, p, stim, pooledOpts(mode), 4000, 48000)
			diffStreams(t, d.Netlist, want, got, fmt.Sprintf("seed=%d mode=%v sliced vs refsim", seed, mode))
		}
	}
}

// frontierBoundaryFixture builds a fanout-2 net for the markLoads boundary
// test: i0 -> inv0 -> n0, with n0 read by two further inverters.
func frontierBoundaryFixture(t *testing.T) (*netlist.Netlist, *sdf.Delays) {
	t.Helper()
	lib := liberty.MustBuiltin()
	nl := netlist.New("boundary", lib)
	if err := nl.MarkInput(nl.AddNet("i0")); err != nil {
		t.Fatal(err)
	}
	for _, inst := range [][3]string{
		{"inv0", "i0", "n0"},
		{"invA", "n0", "ya"},
		{"invB", "n0", "yb"},
	} {
		if _, err := nl.AddInstance(inst[0], "INV", map[string]string{"A": inst[1], "Y": inst[2]}); err != nil {
			t.Fatal(err)
		}
	}
	return nl, sdf.Uniform(nl, 10)
}

// cellByName resolves an instance name to its CellID.
func cellByName(t *testing.T, nl *netlist.Netlist, name string) netlist.CellID {
	t.Helper()
	for i := range nl.Instances {
		if nl.Instances[i].Name == name {
			return netlist.CellID(i)
		}
	}
	t.Fatalf("instance %s missing", name)
	return -1
}

// TestMarkLoadsBoundary pins the wakeup boundary of a watermark-only
// advance against DeterminedUntil's exclusive semantics (event/queue.go): a
// reader whose determination frontier sits exactly at the old watermark was
// blocked on precisely the first newly-determined instant and must be
// woken; a reader one below it was stalled on something else and must not
// be. The frontier commit applies the boundary against the minimum folded
// watermark of the coalesced moves — dirty-marking readers that need a
// real visit, staging quiet ones for a walk.
func TestMarkLoadsBoundary(t *testing.T) {
	nl, delays := frontierBoundaryFixture(t)
	p, err := plan.Build(nl, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	n0, ok := nl.Net("n0")
	if !ok {
		t.Fatal("net n0 missing")
	}
	// Run to completion first so the readers hold a quiet soft snapshot.
	r, err := NewFromPlan(p, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	rA, rB := cellByName(t, nl, "invA"), cellByName(t, nl, "invB")

	const wOld = 100
	setup := func(blocked bool) {
		for i := range r.dirtyBits {
			r.dirtyBits[i] = 0
		}
		for i := range r.segDirty {
			r.segDirty[i] = 0
		}
		for _, c := range []netlist.CellID{rA, rB} {
			r.gate[c].blocked = blocked
		}
		r.gate[rA].detUntil.Store(wOld)     // waiting exactly at the old watermark
		r.gate[rB].detUntil.Store(wOld - 1) // stalled below it, on something else
	}

	// Readers with unconsumed input events need a real visit: the commit
	// dirty-marks them, through the bitset, on the same boundary.
	setup(true)
	r.frontierCommit(n0, wOld)
	if !r.isDirty(rA) {
		t.Error("blocked reader with detUntil == wOld not marked by the frontier commit")
	}
	if r.isDirty(rB) {
		t.Error("blocked reader with detUntil == wOld-1 marked by the frontier commit")
	}
	if got := r.segDirty[p.SegOf[rA]]; got != 1 {
		t.Errorf("segment dirty population = %d after one mark, want 1", got)
	}

	// New events wake every reader regardless of frontier.
	setup(false)
	r.markLoads(n0, wOld, true)
	if !r.isDirty(rA) || !r.isDirty(rB) {
		t.Error("new events must mark every reader")
	}
	setup(false)

	// A watermark-only move stages the *net*, not its readers: one O(1)
	// staging per watermark move, deduped by the netMark staged encoding,
	// with repeated moves min-folding the old watermark onto the same
	// staging. The reader boundary is applied later, by the drain's
	// frontierCommit, against the folded minimum.
	stagedNets := func() (n int64) {
		for _, l := range r.front.netLen {
			n += l
		}
		return n
	}
	stagedCells := func() (n int64) {
		for _, l := range r.front.cellLen {
			n += l
		}
		return n
	}
	r.markLoads(n0, wOld, false)
	if got := stagedNets(); got != 1 {
		t.Fatalf("staged nets = %d after one watermark-only advance, want 1", got)
	}
	if got := r.front.netMark[n0]; got != wOld {
		t.Errorf("netMark = %d after staging, want %d", got, wOld)
	}
	if got := stagedCells(); got != 0 {
		t.Errorf("staged cells = %d before any drain, want 0 (staging is per net)", got)
	}

	// A second move on the same net coalesces: no new staging, and the mark
	// keeps the minimum wOld so the commit filter covers the earliest move.
	r.markLoads(n0, wOld+5, false)
	if got := stagedNets(); got != 1 {
		t.Fatalf("staged nets = %d after duplicate staging, want 1 (netMark dedup)", got)
	}
	if got := r.front.netMark[n0]; got != wOld {
		t.Errorf("netMark = %d after a later move folded in, want min %d", got, wOld)
	}

	// Drain the staging by hand, the way frontierPass does, and check the
	// commit applies the same boundary to the quiet eligible reader cloud:
	// the reader at the folded mark is staged for a walk, the reader below
	// it is untouched, and restaging is deduped by the cellState staged bit.
	w := r.front.netMark[n0]
	r.front.netMark[n0] = frontierUnstaged
	r.frontierCommit(n0, w)
	if got := stagedCells(); got != 1 {
		t.Fatalf("staged cells = %d after the commit, want 1", got)
	}
	if r.front.cellState[rA]&1 == 0 {
		t.Error("reader with detUntil == wOld not staged by the frontier commit")
	}
	if r.front.cellState[rB]&1 != 0 {
		t.Error("reader with detUntil == wOld-1 staged by the frontier commit")
	}
	r.frontierCommit(n0, w)
	if got := stagedCells(); got != 1 {
		t.Fatalf("staged cells = %d after a duplicate commit, want 1 (cellState dedup)", got)
	}
}

// TestFrontierCounters checks the frontier observability: FrontierCommits
// counts drained net stagings, QueriesSaved counts LUT probes the
// determinedness memo skipped, VisitsWatermarkOnly counts visits that
// committed no events, and the obs counters mirror the Stats fields.
func TestFrontierCounters(t *testing.T) {
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
	for h := int64(2000); h < 30000; h += 2000 {
		if err := e.Advance(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.FrontierCommits == 0 {
		t.Error("sliced run committed no frontier nets; the plane never engaged")
	}
	if st.VisitsWatermarkOnly == 0 {
		t.Error("no watermark-only visits counted")
	}
	if st.VisitsWatermarkOnly > st.Visits {
		t.Errorf("VisitsWatermarkOnly %d exceeds Visits %d", st.VisitsWatermarkOnly, st.Visits)
	}
	if st.QueriesSaved < 0 {
		t.Errorf("QueriesSaved = %d, want >= 0", st.QueriesSaved)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim.frontier_commits"]; got != st.FrontierCommits {
		t.Errorf("sim.frontier_commits counter = %d, Stats = %d", got, st.FrontierCommits)
	}
	if got := snap.Counters["sim.queries_saved"]; got != st.QueriesSaved {
		t.Errorf("sim.queries_saved counter = %d, Stats = %d", got, st.QueriesSaved)
	}
	if got := snap.Counters["sim.visits_watermark_only"]; got != st.VisitsWatermarkOnly {
		t.Errorf("sim.visits_watermark_only counter = %d, Stats = %d", got, st.VisitsWatermarkOnly)
	}

}

// TestFrontierSegmentSkipNoLostWakeup is the clean-segment interplay proof:
// a script segment skipped on a zero dirty population must never strand a
// staged frontier entry. Multi-slice pooled and manycore runs on a
// generated design must both commit frontier nets and (on the
// dirty-filtered path) skip segments, while the committed streams stay
// identical to the reference simulator's — a stranded staging would leave
// a frontier behind and diverge. Run under -race via scripts/check.sh.
func TestFrontierSegmentSkipNoLostWakeup(t *testing.T) {
	force4Procs(t)
	d, err := gen.Build(smallSpec(1234))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	p, err := plan.Build(d.Netlist, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 20, ActivityFactor: 0.5, Seed: 9, ScanBurst: 5})

	want := refCollect(t, p, stim)

	for _, mode := range []Mode{ModeParallel, ModeManycore} {
		opts := pooledOpts(mode)
		e, err := NewFromPlan(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stim {
			if err := e.Inject(s.Net, s.Time, s.Val); err != nil {
				t.Fatal(err)
			}
		}
		for h := int64(4000); h < 48000; h += 4000 {
			if err := e.Advance(h); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.FrontierCommits == 0 {
			t.Errorf("mode=%v: no frontier commits; fixture does not exercise the interplay", mode)
		}
		// Only dirty-filtered rounds skip clean segments; the oblivious
		// manycore scan visits everything.
		if mode == ModeParallel && st.SegmentsSkipped == 0 {
			t.Error("pooled run skipped no segments; fixture does not exercise the interplay")
		}
		diffStreams(t, d.Netlist, want, collectEngine(e), fmt.Sprintf("mode=%v frontier+skips vs refsim", mode))
		for nid := range d.Netlist.Nets {
			if w := e.Events(netlist.NetID(nid)).DeterminedUntil(); w != TimeInf {
				t.Fatalf("mode=%v: net %s watermark %d after Finish; a wakeup was lost", mode, d.Netlist.Nets[nid].Name, w)
			}
		}
		e.Close()
	}
}

// TestFrontierLaneEquivalence runs the frontier plane in lane mode: with
// half-clock slices forcing watermark-only advances between stimulus
// bursts, every lane's stream on every net must match a reference run of
// that lane's stimulus alone, and the plane must actually engage (commits
// counted) so the comparison is not vacuous.
func TestFrontierLaneEquivalence(t *testing.T) {
	d, err := gen.Build(smallSpec(4321))
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.StimSpec{Cycles: 15, ActivityFactor: 0.6, Seed: 3, ScanBurst: 5}
	st := checkLaneVsRefsim(t, d, spec, 8, d.Spec.ClockPeriodPS/2, Options{Mode: ModeSerial})
	if st.FrontierCommits == 0 {
		t.Error("lane run committed no frontier nets; the lane frontier is untested")
	}
}

// FuzzFrontier builds random comb1-only netlists and checks the engine
// under sliced advances — the frontier plane's workload — against the
// reference simulator: the committed event streams must be byte-identical.
func FuzzFrontier(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 5})
	f.Add([]byte{1, 4, 1, 7, 2, 9, 0, 2, 1, 3, 2, 8, 0, 1, 1, 6})
	f.Add(bytes.Repeat([]byte{2, 5, 0, 3}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes for a gate")
		}
		nl, err := fuzzCombNetlist(data)
		if err != nil {
			t.Skip(err)
		}
		p, err := plan.Build(nl, testLib, sdf.Uniform(nl, int64(1+data[0]%9)))
		if err != nil {
			t.Skip(err)
		}
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
		slice := int64(700 + 300*int(data[len(data)-1]%5))
		fronted := runCollectSliced(t, p, stim, Options{Mode: ModeSerial}, slice, 12000)
		diffStreams(t, nl, refCollect(t, p, stim), fronted, "fuzz frontier vs refsim")
	})
}
