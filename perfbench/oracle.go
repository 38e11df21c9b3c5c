package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/harness"
	"gatesim/internal/netlist"
	"gatesim/internal/partsim"
	"gatesim/internal/plan"
	"gatesim/internal/refsim"
	"gatesim/internal/sim"
	"gatesim/internal/vcd"
)

// oracle holds what every timed repetition is checked against: refsim's
// digest of the watched stream (one per lane for lane workloads), computed
// once per workload and seed on the same plan and stimulus, untimed. It
// also keeps the plan and stimulus so the traced run can time the refsim
// and partsim baselines on them.
type oracle struct {
	digests []string
	pl      *plan.Plan
	// stim holds one stimulus per run the baselines make: the VCD
	// stimulus for a scalar workload, one per lane for a lane workload.
	stim [][]refsim.Stim
	// refRun is the summed wall time of the refsim runs that produced
	// digests.
	refRun time.Duration
}

// newOracle runs the pipeline's set-up on the workload's inputs without
// timing it and runs refsim over the resulting plan.
func newOracle(w workload, in *inputs) (*oracle, error) {
	fr, err := setUp(w, in, nil, -1)
	if err != nil {
		return nil, err
	}
	fr.engine.Close()
	nl, pl := fr.nl, fr.pl
	o := &oracle{pl: pl}
	if w.lanes > 1 {
		perLane, err := bindLanes(in.laneStim, nl)
		if err != nil {
			return nil, err
		}
		for _, cs := range perLane {
			o.stim = append(o.stim, toStims(cs))
		}
	} else {
		stim, err := readStimulus(in.vcd, nl)
		if err != nil {
			return nil, err
		}
		o.stim = [][]refsim.Stim{stim}
	}
	watch := watchList(w, nl)
	for _, stim := range o.stim {
		evs, d, err := runRefsim(pl, stim, watch)
		if err != nil {
			return nil, err
		}
		o.refRun += d
		var sum string
		if w.lanes > 1 {
			h := newStreamHash()
			for _, ev := range evs {
				h.add(ev.nid, ev.ev.Time, byte(ev.ev.Val))
			}
			sum = h.sum()
		} else {
			h := sha256.New()
			if err := writeVCD(h, nl, watch, evs); err != nil {
				return nil, err
			}
			sum = hex.EncodeToString(h.Sum(nil))
		}
		o.digests = append(o.digests, sum)
	}
	return o, nil
}

// readStimulus drains the VCD stimulus through the same source the
// pipeline uses, so the oracle sees exactly the changes the engine does.
func readStimulus(path string, nl *netlist.Netlist) ([]refsim.Stim, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := vcd.NewReader(f)
	if err != nil {
		return nil, err
	}
	src, err := harness.NewVCDSource(r, nl)
	if err != nil {
		return nil, err
	}
	var out []refsim.Stim
	for {
		c, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, refsim.Stim{Net: c.Net, Time: c.Time, Val: c.Val})
	}
}

func toStims(cs []sim.Change) []refsim.Stim {
	out := make([]refsim.Stim, len(cs))
	for i, c := range cs {
		out[i] = refsim.Stim{Net: c.Net, Time: c.Time, Val: c.Val}
	}
	return out
}

type netEvent struct {
	nid netlist.NetID
	ev  event.Event
}

// runRefsim runs refsim once and returns the watched events in the order
// the engine's stream delivers them: global time order, ties by net id.
func runRefsim(pl *plan.Plan, stim []refsim.Stim, watch []netlist.NetID) ([]netEvent, time.Duration, error) {
	ref, err := refsim.NewFromPlan(pl)
	if err != nil {
		return nil, 0, err
	}
	watched := make([]bool, len(pl.Netlist.Nets))
	for _, nid := range watch {
		watched[nid] = true
	}
	var evs []netEvent
	start := time.Now()
	err = ref.Run(stim, func(nid netlist.NetID, ev event.Event) {
		if watched[nid] {
			evs = append(evs, netEvent{nid, ev})
		}
	})
	d := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("refsim: %w", err)
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].ev.Time != evs[b].ev.Time {
			return evs[a].ev.Time < evs[b].ev.Time
		}
		return evs[a].nid < evs[b].nid
	})
	return evs, d, nil
}

// writeVCD renders watched events as glsim's output VCD.
func writeVCD(dst io.Writer, nl *netlist.Netlist, watch []netlist.NetID, evs []netEvent) error {
	names := make([]string, len(watch))
	idx := make(map[netlist.NetID]int, len(watch))
	for i, nid := range watch {
		names[i] = nl.Nets[nid].Name
		idx[nid] = i
	}
	w := vcd.NewWriter(dst, nl.Name, names)
	for _, ev := range evs {
		if err := w.Change(ev.ev.Time, idx[ev.nid], ev.ev.Val); err != nil {
			return err
		}
	}
	return w.Flush()
}

// partsimBaseline times partsim at one thread over every baseline
// stimulus and returns the summed wall time and rounds.
func (o *oracle) partsimBaseline() (time.Duration, int64, error) {
	var total time.Duration
	var rounds int64
	for _, stim := range o.stim {
		ps, err := partsim.NewFromPlan(o.pl, partsim.Options{Threads: 1})
		if err != nil {
			return 0, 0, err
		}
		st := make([]partsim.Stim, len(stim))
		for i, s := range stim {
			st[i] = partsim.Stim{Net: s.Net, Time: s.Time, Val: s.Val}
		}
		start := time.Now()
		if err := ps.Run(st, nil); err != nil {
			return 0, 0, fmt.Errorf("partsim: %w", err)
		}
		total += time.Since(start)
		rounds += ps.Stats().Rounds
	}
	return total, rounds, nil
}
