// perfbench is the repository's end-to-end benchmark. For one workload it
// generates the inputs from a seed, runs glsim's file pipeline (or the
// lane pipeline) repeatedly for a fixed time, checks every output stream
// against refsim, and prints one JSON result line. README.md describes the
// workloads and metrics.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload comb-aes256 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced repetitions;
// --trace 1 reports the per-layer metrics from traced repetitions
// interleaved with untraced ones, times the refsim and partsim baselines,
// and writes the spans to a trace-event JSON file under --dir.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gatesim/internal/sim"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (comb-aes256, pool-aes256, lanes-aes256; seq-leon2 is held out, see README.md)")
	fs.Int64Var(&cfg.seed, "seed", 1, "stimulus seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/perfbench-work", "directory for generated inputs, outputs and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, err := run(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	dir      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Repetition counts. Every end-to-end time is a median over at least
// minReps repetitions, set-up time included; the traced run interleaves at
// least minReps untraced and minReps traced ones.
const (
	minReps = 3
	maxReps = 200
)

// window is the measuring time of a run. Once minReps repetitions are
// done, another starts only if it would end before the deadline, judged
// by the previous one's duration, so a run measures for --seconds and no
// longer.
type window struct {
	deadline time.Time
	last     time.Duration
}

func newWindow(measure time.Duration) *window {
	return &window{deadline: time.Now().Add(measure)}
}

// more reports whether repetition i (counting from 0) should run.
func (w *window) more(i int) bool {
	return i < maxReps && (i < minReps || time.Until(w.deadline) >= w.last)
}

// run runs f and records its duration.
func (w *window) run(f func()) {
	start := time.Now()
	f()
	w.last = time.Since(start)
}

// runBudget bounds a whole run, so a hung engine fails the run within the
// benchmark's time limit instead of stalling it.
const runBudget = 150 * time.Second

// session runs the repetitions of one workload instance and keeps the
// failure accounting.
type session struct {
	w         workload
	in        *inputs
	or        *oracle
	log       io.Writer
	work      *workKey // first repetition's work counters
	attempted int
	failed    int
}

// workKey is the set of work counters that repeat exactly at one thread.
type workKey struct {
	Sweeps, Visits, Queries, Events, VisitsLane int64
}

func keyOf(st sim.Stats) workKey {
	return workKey{st.Sweeps, st.Visits, st.Queries, st.EventsCommitted, st.VisitsLane}
}

// rep runs one repetition and counts it as failed if it returned an error,
// if its stream differs from refsim's, or if its work counters differ
// from the first repetition's on a single-goroutine workload. It reports
// whether the repetition ran to completion: a completed repetition's
// timings are kept even when its check failed, since the failure is
// counted and reported on its own.
func (s *session) rep(ctx context.Context, tr *recorder, probe *heapProbe) (repResult, bool) {
	s.attempted++
	var res repResult
	var err error
	if s.w.lanes > 1 {
		res, err = runLanes(ctx, s.w, s.in, tr, probe)
	} else {
		res, err = runScalar(ctx, s.w, s.in, tr, probe)
	}
	if err != nil {
		tr.closeOpen()
		s.failed++
		fmt.Fprintf(s.log, "perfbench: %s repetition %d: %v\n", s.w.name, s.attempted, err)
		return res, false
	}
	if err := s.check(res); err != nil {
		s.failed++
		fmt.Fprintf(s.log, "perfbench: %s repetition %d: %v\n", s.w.name, s.attempted, err)
	}
	fmt.Fprintf(s.log, "perfbench: %s repetition %d: wall %.4fs setup %.4fs sim %.4fs\n",
		s.w.name, s.attempted, res.wall.Seconds(), res.setup.Seconds(), res.run.Seconds())
	return res, true
}

func (s *session) check(res repResult) error {
	if s.w.deterministic() {
		k := keyOf(res.stats)
		if s.work == nil {
			s.work = &k
		} else if k != *s.work {
			return fmt.Errorf("work counters %+v differ from the first repetition's %+v", k, *s.work)
		}
	}
	if len(res.digests) != len(s.or.digests) {
		return fmt.Errorf("%d output streams, refsim has %d", len(res.digests), len(s.or.digests))
	}
	for i, d := range res.digests {
		if d != s.or.digests[i] {
			if s.w.lanes > 1 {
				return fmt.Errorf("lane %d stream differs from refsim", i)
			}
			return errors.New("output VCD differs from refsim's stream")
		}
	}
	return nil
}

func run(cfg config, log io.Writer) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	in, err := generate(w, cfg.seed, filepath.Join(cfg.dir, fmt.Sprintf("%s-s%d", w.name, cfg.seed)))
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	or, err := newOracle(w, in)
	if err != nil {
		return nil, fmt.Errorf("refsim oracle: %w", err)
	}
	s := &session{w: w, in: in, or: or, log: log}
	measure := time.Duration(cfg.seconds * float64(time.Second))

	var ms map[string]metric
	if cfg.trace == 1 {
		tracePath := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-s%d.json", w.name, cfg.seed))
		ms, err = s.traced(ctx, measure, tracePath)
	} else {
		ms, err = s.untraced(ctx, measure)
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: ms}, nil
}

// untraced measures the end-to-end metrics. The first repetition is
// untimed: it measures the peak live heap with forced GCs, and warms the
// page cache and the heap for the timed ones.
func (s *session) untraced(ctx context.Context, measure time.Duration) (map[string]metric, error) {
	win := newWindow(measure)
	probe := newHeapProbe()
	probed := false
	win.run(func() { _, probed = s.rep(ctx, nil, probe) })
	if !probed {
		return nil, fmt.Errorf("the heap-probe repetition of %s did not complete", s.w.name)
	}
	var timed []repResult
	for i := 0; win.more(i); i++ {
		win.run(func() {
			if res, ok := s.rep(ctx, nil, nil); ok {
				timed = append(timed, res)
			}
		})
	}
	if len(timed) == 0 {
		return nil, fmt.Errorf("no repetition of %s completed", s.w.name)
	}
	return endToEnd(s.w, timed, probe.megabytes()), nil
}

// traced measures the per-layer metrics: untraced and traced repetitions
// alternate, and the layer figures come from the traced repetition with
// the median wall time, so that they sum to its wall time.
func (s *session) traced(ctx context.Context, measure time.Duration, tracePath string) (map[string]metric, error) {
	partRun, partRounds, err := s.or.partsimBaseline()
	if err != nil {
		return nil, err
	}
	tr := newRecorder()
	var plain, traced []repResult
	win := newWindow(measure)
	for i := 0; win.more(i); i++ {
		win.run(func() {
			if res, ok := s.rep(ctx, nil, nil); ok {
				plain = append(plain, res)
			}
			if res, ok := s.rep(ctx, tr, nil); ok {
				traced = append(traced, res)
			}
		})
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no repetition of %s completed in both modes", s.w.name)
	}
	if err := writeTrace(tracePath, tr); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	b := baselines{refRun: s.or.refRun, partRun: partRun, partRounds: partRounds}
	return perLayer(s.w, tr, plain, traced, b, s.attempted, s.failed)
}

func writeTrace(path string, tr *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
