package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/harness"
	"gatesim/internal/lane"
	"gatesim/internal/liberty"
	"gatesim/internal/netlist"
	"gatesim/internal/plan"
	"gatesim/internal/sdf"
	"gatesim/internal/sim"
	"gatesim/internal/stats"
	"gatesim/internal/truthtab"
	"gatesim/internal/vcd"
)

// repResult is what one repetition of a workload measured.
type repResult struct {
	wall, setup, run time.Duration
	stats            sim.Stats
	pages            int64 // event pages the engine ever allocated
	// digests is the output's digest: one for a scalar run (the output
	// VCD's bytes), one per lane for a lane run.
	digests []string

	parseBytes int // Verilog source size
	sliceCount int

	// Traced repetitions only.
	rep       int   // the recorder's repetition id
	reads     int64 // stimulus changes the engine pulled
	writes    int64 // watched events the engine delivered
	sliceSelf []time.Duration
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap returns the heap bytes the last GC cycle marked live.
func liveHeap() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// heapProbe measures a repetition's peak live heap exactly: it forces a GC
// at every slice boundary and once at the end of the run, and keeps the
// largest live-heap figure above what was live before the repetition
// began. Sampling without the forced GC reads whatever the last
// concurrent cycle marked, which moved by 25% between identical runs.
// The forced GCs cost time, so only an untimed repetition carries a
// probe; a nil probe does nothing.
type heapProbe struct{ base, peak uint64 }

func newHeapProbe() *heapProbe {
	runtime.GC()
	h := liveHeap()
	return &heapProbe{base: h, peak: h}
}

func (p *heapProbe) sample() {
	if p == nil {
		return
	}
	runtime.GC()
	p.peak = max(p.peak, liveHeap())
}

// megabytes returns the peak live heap the repetition added, in MB.
func (p *heapProbe) megabytes() float64 { return float64(p.peak-p.base) / 1e6 }

// front is the set-up half of glsim's pipeline: everything up to a
// constructed engine.
type front struct {
	nl     *netlist.Netlist
	pl     *plan.Plan
	engine *sim.Engine
	vbytes int
}

// setUp runs glsim's set-up calls in glsim's order: library load and
// compile, Verilog read and parse, SDF read, parse and annotation, plan
// lowering and engine construction. The library is parsed from source on
// every call, as a glsim process does once per run (liberty.Builtin caches
// it for the life of the process).
func setUp(w workload, in *inputs, tr *recorder, root int) (*front, error) {
	sp := tr.begin("liberty.load", root)
	lib, err := liberty.Parse(liberty.BuiltinSource)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("built-in library: %w", err)
	}
	sp = tr.begin("truthtab.compile", root)
	clib, err := truthtab.CompileLibrary(lib)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	src, err := os.ReadFile(in.verilog)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("netlist.parse", root)
	nl, err := netlist.ParseVerilogHierarchy(string(src), lib, "")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	_ = nl.Stats() // glsim prints these
	text, err := os.ReadFile(in.sdf)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sdf.parse", root)
	f, err := sdf.Parse(string(text))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sdf.apply", root)
	delays, err := sdf.Apply(f, nl, sdf.Delay{Rise: 1, Fall: 1})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("plan.build", root)
	pl, err := plan.Build(nl, clib, delays)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sim.new", root)
	engine, err := sim.NewFromPlan(pl, sim.Options{Mode: w.mode, Threads: w.threads, Lanes: w.lanes})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &front{nl: nl, pl: pl, engine: engine, vbytes: len(src)}, nil
}

// watchList returns the nets glsim dumps for the workload's -watch value.
func watchList(w workload, nl *netlist.Netlist) []netlist.NetID {
	if !w.watchAll {
		return nl.PortsOut
	}
	all := make([]netlist.NetID, len(nl.Nets))
	for i := range all {
		all[i] = netlist.NetID(i)
	}
	return all
}

// timedSource charges the time spent in the stimulus source to the read
// layer.
type timedSource struct {
	src   sim.StimulusSource
	busy  time.Duration
	calls int64
}

func (s *timedSource) Next() (sim.Change, error) {
	t0 := time.Now()
	c, err := s.src.Next()
	s.busy += time.Since(t0)
	if err == nil {
		s.calls++
	}
	return c, err
}

// sliceClock turns AfterSlice calls into per-slice self times: the time
// since the previous slice boundary minus the read and write busy time
// spent inside that slice.
type sliceClock struct {
	last      time.Time
	lastRead  time.Duration
	lastWrite time.Duration
}

func (c *sliceClock) tick(res *repResult, read, write time.Duration) {
	now := time.Now()
	self := now.Sub(c.last) - (read - c.lastRead) - (write - c.lastWrite)
	res.sliceSelf = append(res.sliceSelf, self)
	c.last, c.lastRead, c.lastWrite = now, read, write
}

// runScalar runs one repetition of a scalar workload through the calls
// cmd/glsim makes, in its order, with its default flags (no timing checks,
// no SAIF, no power report): set-up, VCD stimulus reader, output VCD
// writer, activity recorder, RunStreamCtx, Flush. A nil tr runs it
// untraced; a non-nil probe measures its peak live heap.
func runScalar(ctx context.Context, w workload, in *inputs, tr *recorder, probe *heapProbe) (res repResult, err error) {
	runtime.GC()
	if tr != nil {
		tr.rep++
		res.rep = tr.rep
	}
	start := time.Now()
	root := tr.begin("rep", -1)
	fr, err := setUp(w, in, tr, root)
	if err != nil {
		return res, err
	}
	defer fr.engine.Close()
	res.setup = time.Since(start)
	res.parseBytes = fr.vbytes
	nl := fr.nl

	stimF, err := os.Open(in.vcd)
	if err != nil {
		return res, err
	}
	defer stimF.Close()
	reader, err := vcd.NewReader(stimF)
	if err != nil {
		return res, err
	}
	vsrc, err := harness.NewVCDSource(reader, nl)
	if err != nil {
		return res, err
	}
	dump := watchList(w, nl)
	names := make([]string, len(dump))
	for i, nid := range dump {
		names[i] = nl.Nets[nid].Name
	}
	out, err := os.Create(in.out)
	if err != nil {
		return res, err
	}
	defer out.Close()
	writer := vcd.NewWriter(out, nl.Name, names)
	idx := make(map[netlist.NetID]int, len(dump))
	for i, nid := range dump {
		idx[nid] = i
	}
	activity := stats.NewActivity(nl)

	var lastTime int64 // glsim keeps it for its power and SAIF reports
	var writeErr error
	onEvent := func(nid netlist.NetID, ev event.Event) {
		activity.Record(nid, ev)
		if ev.Time > lastTime {
			lastTime = ev.Time
		}
		if di, ok := idx[nid]; ok {
			if werr := writer.Change(ev.Time, di, ev.Val); werr != nil && writeErr == nil {
				writeErr = werr
			}
		}
	}
	cfg := sim.StreamConfig{Watch: dump, OnEvent: onEvent}
	var src sim.StimulusSource = vsrc
	ts := &timedSource{src: vsrc}
	var clock sliceClock
	var writeBusy time.Duration
	if tr != nil {
		src = ts
		cfg.OnEvent = func(nid netlist.NetID, ev event.Event) {
			t0 := time.Now()
			onEvent(nid, ev)
			writeBusy += time.Since(t0)
			res.writes++
		}
	}
	cfg.AfterSlice = func(int64) error {
		res.sliceCount++
		probe.sample()
		if tr != nil {
			clock.tick(&res, ts.busy, writeBusy)
		}
		return nil
	}

	sp := tr.begin("sim.run", root)
	runStart := time.Now()
	clock.last = runStart
	err = fr.engine.RunStreamCtx(ctx, src, cfg)
	res.run = time.Since(runStart)
	if tr != nil {
		tr.end(sp)
		tr.aggregate("vcd.read", sp, ts.busy, ts.calls)
		tr.aggregate("vcd.write", sp, writeBusy, res.writes)
		res.reads = ts.calls
	}
	if err != nil {
		return res, err
	}
	if writeErr != nil {
		return res, writeErr
	}
	sp = tr.begin("vcd.flush", root)
	err = writer.Flush()
	tr.end(sp)
	if err != nil {
		return res, err
	}
	res.stats = fr.engine.Stats()
	res.wall = time.Since(start)
	tr.end(root)

	res.pages = fr.engine.PoolPages()
	probe.sample()
	if err := out.Close(); err != nil {
		return res, err
	}
	sum, err := fileDigest(in.out)
	if err != nil {
		return res, err
	}
	res.digests = []string{sum}
	return res, nil
}

// laneEvent is one watched lane event as RunLaneStreamCtx delivers it.
type laneEvent struct {
	nid  netlist.NetID
	t    int64
	mask uint32
	w    lane.Word
}

// runLanes runs one repetition of a lane workload: the same set-up as the
// scalar pipeline (glsim has no lane flag, so this is the sequence a lane
// caller makes), then the in-memory per-lane stimulus bound to the parsed
// netlist, merged, and streamed through RunLaneStreamCtx. Wall time ends
// at the last lane event.
func runLanes(ctx context.Context, w workload, in *inputs, tr *recorder, probe *heapProbe) (res repResult, err error) {
	runtime.GC()
	if tr != nil {
		tr.rep++
		res.rep = tr.rep
	}
	start := time.Now()
	root := tr.begin("rep", -1)
	fr, err := setUp(w, in, tr, root)
	if err != nil {
		return res, err
	}
	defer fr.engine.Close()
	res.setup = time.Since(start)
	res.parseBytes = fr.vbytes

	perLane, err := bindLanes(in.laneStim, fr.nl)
	if err != nil {
		return res, err
	}
	merged, err := sim.MergeLaneChanges(perLane)
	if err != nil {
		return res, err
	}
	var evs []laneEvent
	var clock sliceClock
	cfg := sim.LaneStreamConfig{
		SlicePS: w.slicePS,
		Watch:   watchList(w, fr.nl),
		OnEvent: func(nid netlist.NetID, t int64, mask uint32, lw lane.Word) {
			evs = append(evs, laneEvent{nid, t, mask, lw})
		},
		AfterSlice: func(int64) error {
			res.sliceCount++
			probe.sample()
			if tr != nil {
				clock.tick(&res, 0, 0)
			}
			return nil
		},
	}
	sp := tr.begin("sim.run", root)
	runStart := time.Now()
	clock.last = runStart
	err = fr.engine.RunLaneStreamCtx(ctx, merged, cfg)
	res.run = time.Since(runStart)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	res.stats = fr.engine.Stats()
	res.wall = time.Since(start)
	tr.end(root)

	res.pages = fr.engine.PoolPages()
	probe.sample()
	res.digests = laneDigests(evs, w.lanes)
	return res, nil
}

// bindLanes resolves the generated per-lane stimulus onto the parsed
// netlist's net ids.
func bindLanes(perLane [][]namedChange, nl *netlist.Netlist) ([][]sim.Change, error) {
	out := make([][]sim.Change, len(perLane))
	for l, cs := range perLane {
		out[l] = make([]sim.Change, len(cs))
		for i, c := range cs {
			nid, ok := nl.Net(c.net)
			if !ok {
				return nil, fmt.Errorf("lane stimulus net %q is not in %s", c.net, nl.Name)
			}
			out[l][i] = sim.Change{Net: nid, Time: c.Time, Val: c.Val}
		}
	}
	return out, nil
}

// streamHash hashes one watched event stream as (net, time, value)
// records, in the order they are added.
type streamHash struct {
	h   hash.Hash
	buf [13]byte
}

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) add(nid netlist.NetID, t int64, v byte) {
	binary.LittleEndian.PutUint32(s.buf[0:4], uint32(nid))
	binary.LittleEndian.PutUint64(s.buf[4:12], uint64(t))
	s.buf[12] = v
	s.h.Write(s.buf[:])
}

func (s *streamHash) sum() string {
	return hex.EncodeToString(s.h.Sum(nil))
}

// laneDigests splits the lane events into each lane's stream and hashes
// it.
func laneDigests(evs []laneEvent, lanes int) []string {
	hs := make([]*streamHash, lanes)
	for l := range hs {
		hs[l] = newStreamHash()
	}
	for _, ev := range evs {
		for l := 0; l < lanes; l++ {
			if ev.mask&(1<<uint(l)) != 0 {
				hs[l].add(ev.nid, ev.t, byte(ev.w.Get(l)))
			}
		}
	}
	out := make([]string, lanes)
	for l, h := range hs {
		out[l] = h.sum()
	}
	return out
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
