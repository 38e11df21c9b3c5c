package sim

import (
	"bytes"
	"errors"
	"testing"

	"gatesim/internal/event"
	"gatesim/internal/gen"
	"gatesim/internal/netlist"
	"gatesim/internal/plan"
)

// streamEvents runs a stream over the given changes and collects the watched
// events in emission order.
func streamChanges(stim []gen.Change) []Change {
	out := make([]Change, len(stim))
	for i, s := range stim {
		out[i] = Change{Net: s.Net, Time: s.Time, Val: s.Val}
	}
	// gen.Stimuli is globally time-sorted at the source.
	return out
}

type emitted struct {
	nid netlist.NetID
	ev  event.Event
}

// TestStreamAfterSliceSuspendRestoreCrossEngine is the cross-engine restore
// regression for cache-shared plans: a session streams on engine A, suspends
// mid-stream via the AfterSlice seam (snapshot at a slice boundary), and a
// *different* engine built from the same plan — deliberately warmed on other
// stimulus first, so its frontier worklist and dirty-bitset populations hold
// stale state — restores the snapshot and streams the tail. The
// concatenated emission must be byte-identical to an uninterrupted stream.
func TestStreamAfterSliceSuspendRestoreCrossEngine(t *testing.T) {
	for _, mode := range []struct {
		label string
		opts  Options
	}{
		{"serial", Options{Mode: ModeSerial}},
		{"pooled", Options{Mode: ModeParallel, Threads: 4}},
	} {
		t.Run(mode.label, func(t *testing.T) {
			d, err := gen.Build(smallSpec(21))
			if err != nil {
				t.Fatal(err)
			}
			delays := gen.Delays(d, 3)
			p, err := plan.Build(d.Netlist, testLib, delays)
			if err != nil {
				t.Fatal(err)
			}
			stim := streamChanges(gen.Stimuli(d, gen.StimSpec{
				Cycles: 40, ActivityFactor: 0.6, Seed: 9, ScanBurst: 8,
			}))
			const slice = int64(4000)

			// Uninterrupted reference stream from the shared plan.
			var want []emitted
			ref, err := NewFromPlan(p, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = ref.RunStream(NewSliceSource(stim), StreamConfig{
				SlicePS: slice,
				OnEvent: func(nid netlist.NetID, ev event.Event) {
					want = append(want, emitted{nid, ev})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ref.Close()

			// Session engine A: suspend at the third slice boundary.
			errSuspend := errors.New("suspend")
			var got []emitted
			var snap bytes.Buffer
			var cut int64
			slices := 0
			eA, err := NewFromPlan(p, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = eA.RunStream(NewSliceSource(stim), StreamConfig{
				SlicePS: slice,
				OnEvent: func(nid netlist.NetID, ev event.Event) {
					got = append(got, emitted{nid, ev})
				},
				AfterSlice: func(end int64) error {
					slices++
					if slices == 3 {
						cut = end
						if err := eA.SaveSnapshot(&snap); err != nil {
							return err
						}
						return errSuspend
					}
					return nil
				},
			})
			var se *SimError
			if !errors.As(err, &se) || se.Op != "stream" || !errors.Is(err, errSuspend) {
				t.Fatalf("suspend error = %v, want *SimError{Op: stream} wrapping sentinel", err)
			}
			if cut == 0 || snap.Len() == 0 {
				t.Fatal("AfterSlice never reached the suspend point")
			}
			// The seam must not poison: the engine stays advanceable.
			if err := eA.Advance(cut); err != nil {
				t.Fatalf("engine poisoned by AfterSlice abort: %v", err)
			}
			eA.Close()

			// Engine B from the same shared plan, warmed on unrelated stimulus
			// so restore must displace live frontier/dirty state, not fresh
			// zero-state.
			eB, err := NewFromPlan(p, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			warm := streamChanges(gen.Stimuli(d, gen.StimSpec{
				Cycles: 10, ActivityFactor: 0.9, Seed: 77,
			}))
			if err := eB.RunStream(NewSliceSource(warm), StreamConfig{SlicePS: slice}); err != nil {
				t.Fatal(err)
			}
			if err := eB.LoadSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			// Resume from the first change at or past the cut — exactly the
			// changes session A had not yet injected.
			tail := stim[:0:0]
			for _, c := range stim {
				if c.Time >= cut {
					tail = append(tail, c)
				}
			}
			err = eB.RunStream(NewSliceSource(tail), StreamConfig{
				SlicePS: slice,
				OnEvent: func(nid netlist.NetID, ev event.Event) {
					got = append(got, emitted{nid, ev})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			eB.Close()

			if len(got) != len(want) {
				t.Fatalf("resumed stream emitted %d events, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: got %+v want %+v (net %s vs %s)", i,
						got[i].ev, want[i].ev,
						d.Netlist.Nets[got[i].nid].Name, d.Netlist.Nets[want[i].nid].Name)
				}
			}
		})
	}
}

// TestStreamAfterSliceErrorResumable: an AfterSlice error aborts the stream
// as a resumable *SimError and a later RunStream on the SAME engine picks up
// where the first stopped, with no events lost or duplicated.
func TestStreamAfterSliceErrorResumable(t *testing.T) {
	d, err := gen.Build(smallSpec(33))
	if err != nil {
		t.Fatal(err)
	}
	delays := gen.Delays(d, 5)
	p, err := plan.Build(d.Netlist, testLib, delays)
	if err != nil {
		t.Fatal(err)
	}
	stim := streamChanges(gen.Stimuli(d, gen.StimSpec{Cycles: 20, ActivityFactor: 0.5, Seed: 2}))
	const slice = int64(4000)

	var want []emitted
	ref, err := NewFromPlan(p, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunStream(NewSliceSource(stim), StreamConfig{SlicePS: slice,
		OnEvent: func(nid netlist.NetID, ev event.Event) { want = append(want, emitted{nid, ev}) },
	}); err != nil {
		t.Fatal(err)
	}
	ref.Close()

	e, err := NewFromPlan(p, Options{Mode: ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stop := errors.New("budget")
	var got []emitted
	var cut int64
	err = e.RunStream(NewSliceSource(stim), StreamConfig{SlicePS: slice,
		OnEvent: func(nid netlist.NetID, ev event.Event) { got = append(got, emitted{nid, ev}) },
		AfterSlice: func(end int64) error {
			if end >= 2*slice {
				cut = end
				return stop
			}
			return nil
		},
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	tail := stim[:0:0]
	for _, c := range stim {
		if c.Time >= cut {
			tail = append(tail, c)
		}
	}
	if err := e.RunStream(NewSliceSource(tail), StreamConfig{SlicePS: slice,
		OnEvent: func(nid netlist.NetID, ev event.Event) { got = append(got, emitted{nid, ev}) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed emission %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}
