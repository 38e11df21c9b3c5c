package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gatesim/internal/gen"
)

// small returns a short instance of a workload, so tests run in seconds.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.cycles = 40
	if w.preset == "leon2" {
		w.scale, w.cycles = 0.005, 20
	}
	if w.lanes > 1 {
		w.lanes, w.cycles = 4, 20
	}
	return w
}

func newSession(t *testing.T, w workload, seed int64) *session {
	t.Helper()
	in, err := generate(w, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(w, in)
	if err != nil {
		t.Fatal(err)
	}
	return &session{w: w, in: in, or: or, log: &bytes.Buffer{}}
}

// TestDriftAgainstGlsim runs small instances of the scalar workloads
// through the benchmark's pipeline and through cmd/glsim with the same
// mode and watch set: the output VCDs must be byte-identical.
func TestDriftAgainstGlsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/glsim")
	}
	glsim := filepath.Join(t.TempDir(), "glsim")
	if out, err := exec.Command("go", "build", "-o", glsim, "gatesim/cmd/glsim").CombinedOutput(); err != nil {
		t.Fatalf("building glsim: %v\n%s", err, out)
	}
	for _, name := range []string{"comb-aes256", "seq-leon2", "pool-aes256"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			in, err := generate(w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runScalar(context.Background(), w, in, nil, nil); err != nil {
				t.Fatal(err)
			}
			ours, err := os.ReadFile(in.out)
			if err != nil {
				t.Fatal(err)
			}
			watch := "outputs"
			if w.watchAll {
				watch = "all"
			}
			theirs := filepath.Join(in.dir, "glsim.vcd")
			cmd := exec.Command(glsim, "-v", in.verilog, "-sdf", in.sdf, "-vcd", in.vcd, "-o", theirs,
				"-mode", w.mode.String(), "-threads", strconv.Itoa(w.threads), "-watch", watch)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("glsim: %v\n%s", err, out)
			}
			want, err := os.ReadFile(theirs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ours, want) {
				t.Fatalf("benchmark pipeline output (%d bytes) differs from glsim's (%d bytes)", len(ours), len(want))
			}
		})
	}
}

// TestCorruptedStreamCounted checks that a repetition whose output differs
// from refsim's counts as a failure, for a scalar and a lane workload.
func TestCorruptedStreamCounted(t *testing.T) {
	ctx := context.Background()

	s := newSession(t, small(t, "comb-aes256"), 3)
	if _, ok := s.rep(ctx, nil, nil); !ok || s.failed != 0 {
		t.Fatalf("clean repetition: completed=%v failed=%d", ok, s.failed)
	}
	// Swap in another seed's stimulus behind the oracle's back: the engine
	// now writes a different stream than the one refsim checked.
	p, err := gen.PresetByName(s.w.preset)
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Build(p.Spec(s.w.scale, designSeed))
	if err != nil {
		t.Fatal(err)
	}
	stim := gen.Stimuli(d, gen.StimSpec{Cycles: s.w.cycles, ActivityFactor: s.w.activity, Seed: 4, ScanBurst: 16})
	if err := writeStimulus(s.in.vcd, d, stim); err != nil {
		t.Fatal(err)
	}
	s.work = nil // the new stimulus changes the work, which is not what this test checks
	if _, ok := s.rep(ctx, nil, nil); !ok {
		t.Fatal("corrupted repetition did not complete")
	}
	if s.failed != 1 || s.attempted != 2 {
		t.Fatalf("scalar: failed=%d attempted=%d, want 1 of 2", s.failed, s.attempted)
	}

	ls := newSession(t, small(t, "lanes-aes256"), 3)
	ls.in.laneStim[0], ls.in.laneStim[1] = ls.in.laneStim[1], ls.in.laneStim[0]
	if _, ok := ls.rep(ctx, nil, nil); !ok {
		t.Fatal("lane repetition did not complete")
	}
	if ls.failed != 1 {
		t.Fatalf("lanes: failed=%d after swapping two lanes' stimulus, want 1", ls.failed)
	}
}

// TestWorkCountersRepeat checks that differing work counters fail a
// single-goroutine workload and are only reported for the pooled one.
func TestWorkCountersRepeat(t *testing.T) {
	w := small(t, "comb-aes256")
	s := newSession(t, w, 5)
	res, ok := s.rep(context.Background(), nil, nil)
	if !ok || s.failed != 0 {
		t.Fatalf("clean repetition: completed=%v failed=%d", ok, s.failed)
	}
	res.stats.Sweeps++
	if err := s.check(res); err == nil || !strings.Contains(err.Error(), "work counters") {
		t.Fatalf("serial workload accepted differing counters: %v", err)
	}
	s.w.mode, s.w.threads = workloads[2].mode, workloads[2].threads
	if err := s.check(res); err != nil {
		t.Fatalf("pooled workload rejected differing counters: %v", err)
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func checkDeclared(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s is declared but not reported", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s: unit %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is reported but not declared", name)
		}
	}
}

// TestTracedRun checks the traced run on every workload: it reports every
// declared per-layer metric, the layer self times plus the remainder sum
// to the traced wall time, and the trace file parses.
func TestTracedRun(t *testing.T) {
	want := declared(t, "per_layer")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := newSession(t, small(t, w.name), 2)
			path := filepath.Join(t.TempDir(), "trace.json")
			ms, err := s.traced(context.Background(), time.Millisecond, path)
			if err != nil {
				t.Fatal(err)
			}
			checkDeclared(t, ms, want)
			layers := make(map[string]bool)
			for _, name := range layerOf {
				layers[name] = true
			}
			sum := 0.0
			for name := range layers {
				sum += ms[name].Value
			}
			if wall := ms["trace.wall_s"].Value; math.Abs(sum-wall) > 1e-9*math.Max(1, wall) {
				t.Errorf("layer self times sum to %v, traced wall is %v", sum, wall)
			}
			if ms["other_s"].Value < 0 {
				t.Errorf("negative remainder %v", ms["other_s"].Value)
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			names := make(map[string]bool)
			for _, ev := range doc.TraceEvents {
				if ev.Ph != "X" || ev.Dur < 0 {
					t.Fatalf("bad trace event %+v", ev)
				}
				names[ev.Name] = true
			}
			for span := range layerOf {
				if !names[span] && !(w.lanes > 1 && strings.HasPrefix(span, "vcd.")) {
					t.Errorf("trace has no %s span", span)
				}
			}
		})
	}
}

// TestEndToEndMetrics checks that an untraced run reports exactly the
// declared end-to-end metrics, none of them zero.
func TestEndToEndMetrics(t *testing.T) {
	s := newSession(t, small(t, "comb-aes256"), 2)
	ms, err := s.untraced(context.Background(), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.attempted != minReps+1 || s.failed != 0 {
		t.Fatalf("attempted=%d failed=%d", s.attempted, s.failed)
	}
	checkDeclared(t, ms, declared(t, "end_to_end"))
	for name, m := range ms {
		if !(m.Value > 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := mainCode([]string{"--workload", "nope", "--dir", t.TempDir()}, &out, &errb); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := mainCode([]string{"--workload", "comb-aes256", "--trace", "2"}, &out, &errb); code == 0 {
		t.Error("--trace 2 exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("a failed run printed a result: %q", out.String())
	}
}
