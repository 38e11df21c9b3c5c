package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gatesim/internal/truthtab"
)

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func each(rs []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// eventsPerSecond is committed events ÷ sim time; for lanes, committed
// events × lanes.
func eventsPerSecond(w workload, r repResult) float64 {
	events := float64(r.stats.EventsCommitted)
	if w.lanes > 1 {
		events *= float64(w.lanes)
	}
	return events / r.run.Seconds()
}

// endToEnd returns the end-to-end metrics: the times are medians over the
// timed repetitions, and heapMB is the probe repetition's peak live heap.
func endToEnd(w workload, rs []repResult, heapMB float64) map[string]metric {
	sec := func(f func(repResult) time.Duration) float64 {
		return median(each(rs, func(r repResult) float64 { return f(r).Seconds() }))
	}
	return map[string]metric{
		"wall_s":       {sec(func(r repResult) time.Duration { return r.wall }), "s"},
		"setup_s":      {sec(func(r repResult) time.Duration { return r.setup }), "s"},
		"sim_s":        {sec(func(r repResult) time.Duration { return r.run }), "s"},
		"events_per_s": {median(each(rs, func(r repResult) float64 { return eventsPerSecond(w, r) })), "1/s"},
		"peak_heap_mb": {heapMB, "MB"},
	}
}

type baselines struct {
	refRun, partRun time.Duration
	partRounds      int64
}

// layerOf maps each span name to the per-layer self-time metric it is
// charged to. The root span's self time is the "other" remainder.
var layerOf = map[string]string{
	"rep":              "other_s",
	"liberty.load":     "liberty.load_s",
	"truthtab.compile": "truthtab.compile_s",
	"netlist.parse":    "netlist.parse_s",
	"sdf.parse":        "sdf.parse_s",
	"sdf.apply":        "sdf.apply_s",
	"plan.build":       "plan.build_s",
	"sim.new":          "sim.new_s",
	"sim.run":          "sim.self_s",
	"vcd.read":         "vcd.read_s",
	"vcd.write":        "vcd.write_s",
	"vcd.flush":        "vcd.write_s",
}

// accountLayers sums one traced repetition's span self times into the
// layer metrics and checks that they add up to its wall time.
func accountLayers(tr *recorder, rep int) (map[string]float64, time.Duration, error) {
	var wall time.Duration
	for _, sp := range tr.spans {
		if sp.Rep == rep && sp.Parent < 0 {
			wall = sp.Dur
		}
	}
	layers := make(map[string]float64)
	for _, name := range layerOf {
		layers[name] = 0
	}
	var total time.Duration
	for name, self := range selfTimes(tr.spans, rep) {
		m, ok := layerOf[name]
		if !ok {
			return nil, 0, fmt.Errorf("span %q has no layer", name)
		}
		layers[m] += self.Seconds()
		total += self
	}
	if total != wall {
		return nil, 0, fmt.Errorf("layer self times sum to %v, wall is %v", total, wall)
	}
	return layers, wall, nil
}

// perLayer returns the per-layer metrics of a traced run. Layer times and
// counters come from the traced repetition with the median wall time.
func perLayer(w workload, tr *recorder, plain, traced []repResult, b baselines, attempted, failed int) (map[string]metric, error) {
	all := append(append([]repResult(nil), plain...), traced...)
	sorted := append([]repResult(nil), traced...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].wall < sorted[j].wall })
	r := sorted[(len(sorted)-1)/2]
	layers, wall, err := accountLayers(tr, r.rep)
	if err != nil {
		return nil, err
	}
	ms := make(map[string]metric)
	for name, v := range layers {
		ms[name] = metric{v, "s"}
	}
	count := func(name string, v int64) { ms[name] = metric{float64(v), "count"} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	st := r.stats
	self := layers["sim.self_s"]

	ms["trace.wall_s"] = metric{wall.Seconds(), "s"}
	ms["trace.overhead_s"] = metric{wall.Seconds() - median(each(plain, func(r repResult) float64 { return r.wall.Seconds() })), "s"}
	ms["netlist.mb_per_s"] = metric{ratio(float64(r.parseBytes)/1e6, layers["netlist.parse_s"]), "MB/s"}
	count("vcd.read_changes", r.reads)
	count("vcd.write_events", r.writes)

	ms["sim.sweep_s"] = metric{time.Duration(st.SweepNS).Seconds(), "s"}
	ms["sim.level_s"] = metric{time.Duration(st.LevelNS).Seconds(), "s"}
	ms["sim.ns_per_visit"] = metric{ratio(self*1e9, float64(st.Visits)), "ns"}
	ms["sim.sweeps_per_cycle"] = metric{ratio(float64(st.Sweeps), float64(w.cycles)), "1/cycle"}
	count("sim.sweeps", st.Sweeps)
	count("sim.visits", st.Visits)
	count("sim.visits_comb1", st.VisitsByKernel[truthtab.ClassComb1])
	count("sim.visits_seq", st.VisitsByKernel[truthtab.ClassSeq])
	count("sim.visits_lane", st.VisitsLane)
	count("sim.visits_watermark_only", st.VisitsWatermarkOnly)
	count("sim.queries", st.Queries)
	count("sim.queries_saved", st.QueriesSaved)
	count("sim.frontier_commits", st.FrontierCommits)
	count("sim.segments_skipped", st.SegmentsSkipped)
	count("sim.events", st.EventsCommitted)
	ms["sim.visits_per_event"] = metric{ratio(float64(st.Visits), float64(st.EventsCommitted)), "ratio"}
	ms["sim.queries_per_event"] = metric{ratio(float64(st.Queries), float64(st.EventsCommitted)), "ratio"}

	count("workpool.rounds", st.PoolRounds)
	count("workpool.wakes", st.PoolWakes)
	count("workpool.parks", st.PoolParks)
	count("workpool.spawned", st.PoolSpawned)
	ms["sim.sweeps_spread"] = metric{spread(each(all, func(r repResult) float64 { return float64(r.stats.Sweeps) })), "ratio"}
	ms["workpool.rounds_spread"] = metric{spread(each(all, func(r repResult) float64 { return float64(r.stats.PoolRounds) })), "ratio"}

	count("sim.slices", int64(r.sliceCount))
	slices := make([]float64, len(r.sliceSelf))
	for i, d := range r.sliceSelf {
		slices[i] = d.Seconds()
	}
	ms["sim.slice_p50_s"] = metric{median(slices), "s"}
	ms["sim.slice_max_s"] = metric{maxOf(slices), "s"}
	ms["sim.slice_growth"] = metric{growth(slices), "ratio"}
	count("event.pages", r.pages)

	ms["refsim.run_s"] = metric{b.refRun.Seconds(), "s"}
	ms["partsim.run_s"] = metric{b.partRun.Seconds(), "s"}
	count("partsim.rounds", b.partRounds)
	ms["fail_rate"] = metric{float64(failed) / float64(attempted), "ratio"}
	return ms, nil
}

// spread is (max − min) ÷ median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// growth is the mean self time of the last quarter of slices divided by
// that of the first quarter: 1 when every slice costs the same.
func growth(slices []float64) float64 {
	q := len(slices) / 4
	if q == 0 {
		return 1
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(slices[len(slices)-q:]) / mean(slices[:q])
}
