package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed layer call. Spans of one repetition share Rep; Parent
// is the id of the enclosing span (-1 for a repetition's root). An
// aggregate span stands for many short calls (the stimulus reads and
// output writes the engine calls back into): Dur is their summed busy
// time and Calls their number, and Start is where the enclosing call began.
type span struct {
	ID        int
	Parent    int
	Rep       int
	Name      string
	Start     time.Duration // since the recorder's epoch
	Dur       time.Duration
	Calls     int64
	Aggregate bool
}

// recorder keeps spans in memory; they are written out once, at the end of
// the run. A nil *recorder records nothing, which is how the untraced
// repetitions run the same pipeline code.
type recorder struct {
	epoch time.Time
	rep   int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its id (-1 when untraced).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Rep: r.rep, Name: name,
		Start: time.Since(r.epoch), Dur: -1,
	})
	return len(r.spans) - 1
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.Dur = time.Since(r.epoch) - s.Start
}

// closeOpen ends the spans a failed repetition left open.
func (r *recorder) closeOpen() {
	if r == nil {
		return
	}
	for i := range r.spans {
		if r.spans[i].Dur < 0 {
			r.end(i)
		}
	}
}

// aggregate records a span standing for calls short calls totalling busy.
func (r *recorder) aggregate(name string, parent int, busy time.Duration, calls int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Rep: r.rep, Name: name,
		Start: r.spans[parent].Start, Dur: busy, Calls: calls, Aggregate: true,
	})
}

// selfTimes returns, for the spans of one repetition, each span name's
// summed self time: a span's duration minus its children's durations. The
// root's self time is the time no layer span accounts for.
func selfTimes(spans []span, rep int) map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Rep == rep && s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Rep == rep {
			out[s.Name] += s.Dur - child[s.ID]
		}
	}
	return out
}

// traceEvent is one Chrome/Perfetto trace-event ("X" complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeJSON writes the spans as a trace-event JSON document that
// ui.perfetto.dev and chrome://tracing load; args carry the span tree.
func (r *recorder) writeJSON(w io.Writer) error {
	evs := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "rep": s.Rep}
		if s.Aggregate {
			args["aggregate"] = true
			args["calls"] = s.Calls
		}
		tid := 1
		if s.Aggregate {
			tid = 2 // summed busy time would overlap its siblings on one track
		}
		evs[i] = traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid, Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
