package sim

import (
	"bytes"
	"fmt"
	"testing"

	"gatesim/internal/event"
	"gatesim/internal/gen"
	"gatesim/internal/lane"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/plan"
	"gatesim/internal/refsim"
	"gatesim/internal/sdf"
)

// checkLaneVsRefsim is the lane-mode acceptance oracle: one lane engine run
// over the merged per-lane stimuli, then every lane's extracted stream on
// every net must be byte-identical to a reference-simulator run of that
// lane's stimulus alone.
func checkLaneVsRefsim(t *testing.T, d *gen.Design, spec gen.StimSpec, lanes int, slice int64, opts Options) Stats {
	t.Helper()
	delays := gen.Delays(d, 7)
	perLaneG := gen.LaneStimuli(d, spec, lanes)

	wants := make([]refsim.Collect, lanes)
	for l := range wants {
		ref, err := refsim.New(d.Netlist, testLib, delays)
		if err != nil {
			t.Fatal(err)
		}
		rstim := make([]refsim.Stim, len(perLaneG[l]))
		for i, s := range perLaneG[l] {
			rstim[i] = refsim.Stim{Net: s.Net, Time: s.Time, Val: s.Val}
		}
		wants[l] = refsim.Collect{}
		if err := ref.Run(rstim, wants[l].Add); err != nil {
			t.Fatal(err)
		}
	}

	perLane := make([][]Change, lanes)
	for l, cs := range perLaneG {
		perLane[l] = make([]Change, len(cs))
		for i, c := range cs {
			perLane[l][i] = Change{Net: c.Net, Time: c.Time, Val: c.Val}
		}
	}
	merged, err := MergeLaneChanges(perLane)
	if err != nil {
		t.Fatal(err)
	}
	opts.Lanes = lanes
	e, err := New(d.Netlist, testLib, delays, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.RunLaneStream(merged, LaneStreamConfig{SlicePS: slice}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().VisitsLane == 0 {
		t.Error("lane run recorded no lane visits")
	}

	for nid := range d.Netlist.Nets {
		for l := 0; l < lanes; l++ {
			got := e.LaneEvents(netlist.NetID(nid), l)
			want := wants[l][netlist.NetID(nid)]
			if len(got) != len(want) {
				t.Fatalf("net %s lane %d: %d events vs refsim %d\nwant %v\ngot  %v",
					d.Netlist.Nets[nid].Name, l, len(got), len(want), want, got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("net %s lane %d event %d: got %+v want %+v",
						d.Netlist.Nets[nid].Name, l, i, got[i], want[i])
				}
			}
		}
	}
	return e.Stats()
}

// TestLaneMatchesRefsim32Serial is the core acceptance test: 32 lanes of
// independently seeded stimulus through one serial lane run, every lane's
// committed stream on every net identical to 32 scalar reference runs. The
// generated designs cover FFs, latches, scan chains and clock gates, so
// both the lane comb1 kernel and the generic lane interpreter are on the
// path.
func TestLaneMatchesRefsim32Serial(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		d, err := gen.Build(smallSpec(seed + 500))
		if err != nil {
			t.Fatal(err)
		}
		spec := gen.StimSpec{Cycles: 15, ActivityFactor: 0.6, Seed: seed, ScanBurst: 5}
		checkLaneVsRefsim(t, d, spec, lane.MaxLanes, 4*d.Spec.ClockPeriodPS, Options{Mode: ModeSerial})
	}
}

// TestLaneMatchesRefsimFewLanes covers lane counts below a full word,
// where the high lanes of every word sit outside laneMask.
func TestLaneMatchesRefsimFewLanes(t *testing.T) {
	d, err := gen.Build(smallSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.StimSpec{Cycles: 12, ActivityFactor: 0.7, Seed: 0, ScanBurst: 4}
	for _, lanes := range []int{2, 5, 8} {
		checkLaneVsRefsim(t, d, spec, lanes, 4*d.Spec.ClockPeriodPS, Options{Mode: ModeSerial})
	}
}

// TestLaneMatchesRefsimPooled runs the 32-lane oracle through the worker
// pool; under -race (scripts/check.sh) this doubles as the data-race check
// on the lane stores' copy-on-grow page directories.
func TestLaneMatchesRefsimPooled(t *testing.T) {
	force4Procs(t)
	d, err := gen.Build(smallSpec(501))
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.StimSpec{Cycles: 12, ActivityFactor: 0.6, Seed: 1, ScanBurst: 5}
	checkLaneVsRefsim(t, d, spec, lane.MaxLanes, 4*d.Spec.ClockPeriodPS, pooledOpts(ModeParallel))
}

// TestLanesOneIsScalar pins the default: Options.Lanes <= 1 runs the
// unmodified scalar engine (lane arrays never allocated, scalar Inject and
// snapshots usable).
func TestLanesOneIsScalar(t *testing.T) {
	d, err := gen.Build(smallSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: 10, ActivityFactor: 0.6, Seed: 2, ScanBurst: 4})
	runBoth(t, d, stim, Options{Mode: ModeSerial, Lanes: 1})

	e, err := New(d.Netlist, testLib, gen.Delays(d, 7), Options{Mode: ModeSerial, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Lanes() != 1 {
		t.Fatalf("Lanes() = %d, want 1", e.Lanes())
	}
	if err := e.Inject(d.Netlist.PortsIn[0], 10, logic.V1); err != nil {
		t.Fatalf("scalar Inject rejected with Lanes=1: %v", err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.SaveSnapshot(&snap); err != nil {
		t.Fatalf("snapshot rejected with Lanes=1: %v", err)
	}
}

// TestLaneModeGuards pins the lane-mode API surface: construction limits
// and the scalar entry points that lane mode must refuse (Inject, scalar
// streaming, snapshots) or ignore (Checkpoint).
func TestLaneModeGuards(t *testing.T) {
	d, err := gen.Build(smallSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	p, err := plan.Build(d.Netlist, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromPlan(p, Options{Lanes: lane.MaxLanes + 1}); err == nil {
		t.Error("Lanes above lane.MaxLanes accepted")
	}

	e, err := NewFromPlan(p, Options{Mode: ModeSerial, Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Lanes() != 8 {
		t.Fatalf("Lanes() = %d, want 8", e.Lanes())
	}
	pi := d.Netlist.PortsIn[0]
	if err := e.Inject(pi, 10, logic.V1); err == nil {
		t.Error("scalar Inject accepted in lane mode")
	}
	if err := e.RunStream(NewSliceSource(nil), StreamConfig{}); err == nil {
		t.Error("scalar RunStream accepted in lane mode")
	}
	var snap bytes.Buffer
	if err := e.SaveSnapshot(&snap); err == nil {
		t.Error("SaveSnapshot accepted in lane mode")
	}
	if err := e.LoadSnapshot(&snap); err == nil {
		t.Error("LoadSnapshot accepted in lane mode")
	}
	if err := e.InjectLanes(pi, 10, lane.Broadcast(logic.V1), 0xFF); err != nil {
		t.Fatalf("InjectLanes: %v", err)
	}
	e.Checkpoint() // must be an inert no-op, not a panic
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	// InjectLanes on a scalar engine must refuse too.
	es, err := NewFromPlan(p, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	if err := es.InjectLanes(pi, 10, lane.Broadcast(logic.V1), 1); err == nil {
		t.Error("InjectLanes accepted on a scalar engine")
	}
}

// TestMergeLaneChanges checks the fold: shared stimulus (the clock) merges
// into full-mask entries, per-lane data diverges into partial masks, and
// the result is globally time-sorted.
func TestMergeLaneChanges(t *testing.T) {
	clk, da := netlist.NetID(0), netlist.NetID(1)
	perLane := [][]Change{
		{{Net: clk, Time: 0, Val: logic.V0}, {Net: da, Time: 5, Val: logic.V1}, {Net: clk, Time: 10, Val: logic.V1}},
		{{Net: clk, Time: 0, Val: logic.V0}, {Net: da, Time: 7, Val: logic.V1}, {Net: clk, Time: 10, Val: logic.V1}},
	}
	merged, err := MergeLaneChanges(perLane)
	if err != nil {
		t.Fatal(err)
	}
	want := []LaneChange{
		{Net: clk, Time: 0, Mask: 0b11, Word: lane.Word(0)},
		{Net: da, Time: 5, Mask: 0b01, Word: lane.Word(0).Set(0, logic.V1)},
		{Net: da, Time: 7, Mask: 0b10, Word: lane.Word(0).Set(1, logic.V1)},
		{Net: clk, Time: 10, Mask: 0b11, Word: lane.Word(0).Set(0, logic.V1).Set(1, logic.V1)},
	}
	if len(merged) != len(want) {
		t.Fatalf("merged %d entries, want %d: %+v", len(merged), len(want), merged)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, merged[i], want[i])
		}
	}
	if _, err := MergeLaneChanges(nil); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := MergeLaneChanges(make([][]Change, lane.MaxLanes+1)); err == nil {
		t.Error("too many lanes accepted")
	}
}

// TestLaneStreamOnEvent checks the lane stream callback: watched events
// arrive in global (time, net) order with masks and merged words matching
// what LaneEvents later extracts.
func TestLaneStreamOnEvent(t *testing.T) {
	d, err := gen.Build(smallSpec(15))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 7)
	perLaneG := gen.LaneStimuli(d, gen.StimSpec{Cycles: 10, ActivityFactor: 0.6, Seed: 4, ScanBurst: 4}, 4)
	perLane := make([][]Change, len(perLaneG))
	for l, cs := range perLaneG {
		perLane[l] = make([]Change, len(cs))
		for i, c := range cs {
			perLane[l][i] = Change{Net: c.Net, Time: c.Time, Val: c.Val}
		}
	}
	merged, err := MergeLaneChanges(perLane)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Netlist, testLib, delays, Options{Mode: ModeSerial, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	type got struct {
		nid  netlist.NetID
		t    int64
		mask uint32
		w    lane.Word
	}
	var seen []got
	err = e.RunLaneStream(merged, LaneStreamConfig{
		Watch: d.Outs,
		OnEvent: func(nid netlist.NetID, tm int64, mask uint32, w lane.Word) {
			seen = append(seen, got{nid, tm, mask, w})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(seen); i++ {
		a, b := seen[i-1], seen[i]
		if b.t < a.t || (b.t == a.t && b.nid < a.nid) {
			t.Fatalf("events out of order at %d: %+v then %+v", i, a, b)
		}
	}
	// Cross-check against direct extraction per watched net.
	byNet := make(map[netlist.NetID][]got)
	for _, g := range seen {
		byNet[g.nid] = append(byNet[g.nid], g)
	}
	for _, nid := range d.Outs {
		q := e.Events(nid)
		n := q.Len() - q.Start()
		if int64(len(byNet[nid])) != n {
			t.Fatalf("net %s: OnEvent saw %d events, queue has %d", d.Netlist.Nets[nid].Name, len(byNet[nid]), n)
		}
	}
}

// FuzzLaneKernel builds random comb1-only netlists and random per-lane
// toggle schedules, then checks every lane of one lane-mode run against
// scalar runs of each lane's stimulus alone — the same differential as the
// refsim tests, under fuzzed structure and timing.
func FuzzLaneKernel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 5})
	f.Add([]byte{1, 4, 1, 7, 2, 9, 0, 2, 1, 3, 2, 8, 0, 1, 1, 6})
	f.Add(bytes.Repeat([]byte{3, 5, 0, 7}, 8))
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
		const lanes = 4
		perLane := make([][]Change, lanes)
		for l := 0; l < lanes; l++ {
			for i := 0; i < 3; i++ {
				nid, ok := nl.Net(fmt.Sprintf("i%d", i))
				if !ok {
					t.Fatalf("input i%d missing", i)
				}
				step := int64(200 + 100*int(data[(i+l)%len(data)]%7))
				for c := int64(0); c < 6; c++ {
					perLane[l] = append(perLane[l], Change{
						Net: nid, Time: 500 + int64(i)*130 + int64(l)*37 + c*step, Val: logic.Value(c % 2),
					})
				}
			}
		}
		merged, err := MergeLaneChanges(perLane)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewFromPlan(p, Options{Mode: ModeSerial, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, c := range merged {
			if err := e.InjectLanes(c.Net, c.Time, c.Word, c.Mask); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			gstim := make([]gen.Change, len(perLane[l]))
			for i, c := range perLane[l] {
				gstim[i] = gen.Change{Net: c.Net, Time: c.Time, Val: c.Val}
			}
			want := runCollect(t, p, gstim, Options{Mode: ModeSerial})
			for nid := range nl.Nets {
				got := e.LaneEvents(netlist.NetID(nid), l)
				w := want[netlist.NetID(nid)]
				if len(got) != len(w) {
					t.Fatalf("net %s lane %d: %d events vs scalar %d\nwant %v\ngot  %v",
						nl.Nets[nid].Name, l, len(got), len(w), w, got)
				}
				for i := range w {
					if got[i] != w[i] {
						t.Fatalf("net %s lane %d event %d: got %+v want %+v",
							nl.Nets[nid].Name, l, i, got[i], w[i])
					}
				}
			}
		}
	})
}

// TestLaneEventsEmptyOutsideMask pins extraction on quiet lanes: a lane
// never touched by a net's events yields an empty stream even though the
// shared queue holds other lanes' traffic.
func TestLaneEventsEmptyOutsideMask(t *testing.T) {
	d, err := gen.Build(smallSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Netlist, testLib, gen.Delays(d, 7), Options{Mode: ModeSerial, Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pi := d.Netlist.PortsIn[0]
	// Only lane 3 toggles.
	w := lane.Word(0).Set(3, logic.V1)
	if err := e.InjectLanes(pi, 100, w, 1<<3); err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if evs := e.LaneEvents(pi, 3); len(evs) != 1 || evs[0] != (event.Event{Time: 100, Val: logic.V1}) {
		t.Fatalf("lane 3 events: %v", evs)
	}
	for _, l := range []int{0, 1, 2, 4, 7} {
		if evs := e.LaneEvents(pi, l); len(evs) != 0 {
			t.Fatalf("quiet lane %d has events: %v", l, evs)
		}
	}
}
