package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxTraceEvents bounds the recorder's memory on runaway runs: past the cap
// new events are dropped and counted (Dropped), so a forgotten -trace on a
// week-long simulation degrades to a truncated trace instead of OOM.
const maxTraceEvents = 1 << 21

// event phase bytes, straight from the Chrome trace-event format.
const (
	phaseBegin    = 'B'
	phaseEnd      = 'E'
	phaseCounter  = 'C'
	phaseMetadata = 'M'
)

type traceEvent struct {
	name string
	ph   byte
	tid  int32
	ts   int64 // ns since trace start
	val  int64 // counter value (phaseCounter only)
}

// Trace records spans and counter samples and serializes them as
// Chrome/Perfetto trace-event JSON (load the file at https://ui.perfetto.dev
// or chrome://tracing). All methods are safe for concurrent use and
// nil-receiver-safe, so a nil *Trace is the disabled path.
//
// Spans nest per track: Begin/End pairs on one tid form a stack, exactly the
// trace-event "duration event" semantics. Tracks are allocated with Thread
// and named in the viewer through metadata events. Counter samples share one
// synthetic track per counter name.
type Trace struct {
	start time.Time

	mu      sync.Mutex
	events  []traceEvent
	threads int32
	open    map[int32]int // per-track open-span depth, for Balanced / safe End

	dropped atomic.Int64
}

// NewTrace starts a recorder; timestamps are monotonic from this call.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), open: make(map[int32]int)}
}

// Thread allocates a new track and names it in the viewer. Track 0 exists
// implicitly (counter samples and spans recorded before any Thread call land
// there); the first Thread call returns 1. Returns 0 on a nil receiver.
func (t *Trace) Thread(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threads++
	tid := t.threads
	t.append(traceEvent{name: name, ph: phaseMetadata, tid: tid})
	return int(tid)
}

// Begin opens a span named name on track tid.
func (t *Trace) Begin(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open[int32(tid)]++
	t.append(traceEvent{name: name, ph: phaseBegin, tid: int32(tid), ts: t.now()})
	t.mu.Unlock()
}

// End closes the innermost open span on track tid. An End with no matching
// Begin is dropped rather than corrupting the trace.
func (t *Trace) End(tid int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.open[int32(tid)] > 0 {
		t.open[int32(tid)]--
		t.append(traceEvent{ph: phaseEnd, tid: int32(tid), ts: t.now()})
	}
	t.mu.Unlock()
}

// Count records one sample on the counter track named name. In Perfetto
// each distinct name renders as its own counter track.
func (t *Trace) Count(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.append(traceEvent{name: name, ph: phaseCounter, ts: t.now(), val: v})
	t.mu.Unlock()
}

// now is the timestamp of an event being appended. Callers hold t.mu:
// reading the clock under the lock keeps the event array in time order
// when several goroutines record concurrently.
func (t *Trace) now() int64 { return time.Since(t.start).Nanoseconds() }

// append stores one event, honoring the cap. Callers hold t.mu.
func (t *Trace) append(ev traceEvent) {
	if len(t.events) >= maxTraceEvents {
		t.dropped.Add(1)
		return
	}
	t.events = append(t.events, ev)
}

// Dropped reports how many events the cap discarded; 0 on a nil receiver.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len reports the recorded event count; 0 on a nil receiver.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON serializes the trace in Chrome trace-event JSON object form.
// Open spans are closed at the current time first, so a trace written after
// an aborted run is still balanced and loadable.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on a nil trace")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.now()
	for tid, depth := range t.open {
		for ; depth > 0; depth-- {
			t.events = append(t.events, traceEvent{ph: phaseEnd, tid: tid, ts: ts})
		}
		t.open[tid] = 0
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range t.events {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if err := writeEvent(bw, ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeEvent emits one trace-event JSON object. Timestamps are microseconds
// (the format's unit); fractional digits keep nanosecond resolution.
func writeEvent(bw *bufio.Writer, ev traceEvent) error {
	var buf [32]byte
	bw.WriteString(`{"pid":1,"tid":`)
	bw.Write(strconv.AppendInt(buf[:0], int64(ev.tid), 10))
	switch ev.ph {
	case phaseMetadata:
		bw.WriteString(`,"ph":"M","name":"thread_name","args":{"name":`)
		nameJSON, err := json.Marshal(ev.name)
		if err != nil {
			return err
		}
		bw.Write(nameJSON)
		bw.WriteString(`}}`)
	case phaseBegin, phaseEnd:
		bw.WriteString(`,"ph":"`)
		bw.WriteByte(ev.ph)
		bw.WriteString(`","ts":`)
		writeMicros(bw, ev.ts)
		if ev.name != "" {
			bw.WriteString(`,"name":`)
			nameJSON, err := json.Marshal(ev.name)
			if err != nil {
				return err
			}
			bw.Write(nameJSON)
		}
		bw.WriteString(`,"cat":"sim"}`)
	case phaseCounter:
		bw.WriteString(`,"ph":"C","ts":`)
		writeMicros(bw, ev.ts)
		bw.WriteString(`,"name":`)
		nameJSON, err := json.Marshal(ev.name)
		if err != nil {
			return err
		}
		bw.Write(nameJSON)
		bw.WriteString(`,"cat":"sim","args":{"value":`)
		bw.Write(strconv.AppendInt(buf[:0], ev.val, 10))
		bw.WriteString(`}}`)
	}
	return nil
}

// writeMicros writes ns as a decimal microsecond value with ns precision.
func writeMicros(bw *bufio.Writer, ns int64) {
	var buf [32]byte
	bw.Write(strconv.AppendInt(buf[:0], ns/1000, 10))
	bw.WriteByte('.')
	frac := ns % 1000
	bw.WriteByte(byte('0' + frac/100))
	bw.WriteByte(byte('0' + frac/10%10))
	bw.WriteByte(byte('0' + frac%10))
}

// ValidateTraceJSON checks that data is well-formed Chrome trace-event JSON
// as this package emits it: an object with a traceEvents array, every event
// carrying a known phase, timestamps present and globally nondecreasing for
// timed events, and Begin/End pairs balanced per track. The golden trace
// test and the CLI tests share this checker.
func ValidateTraceJSON(data []byte) error {
	var file struct {
		TraceEvents []struct {
			Name *string        `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if file.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	lastTS := -1.0
	depth := make(map[int]int)
	for i, ev := range file.TraceEvents {
		if ev.Pid == nil || ev.Tid == nil {
			return fmt.Errorf("obs: event %d missing pid/tid", i)
		}
		switch ev.Ph {
		case "M":
			continue
		case "B", "E", "C", "X":
		default:
			return fmt.Errorf("obs: event %d has unknown phase %q", i, ev.Ph)
		}
		if ev.Ts == nil {
			return fmt.Errorf("obs: event %d (phase %s) missing ts", i, ev.Ph)
		}
		if *ev.Ts < lastTS {
			return fmt.Errorf("obs: event %d timestamp %v goes backwards (previous %v)", i, *ev.Ts, lastTS)
		}
		lastTS = *ev.Ts
		switch ev.Ph {
		case "B":
			if ev.Name == nil || *ev.Name == "" {
				return fmt.Errorf("obs: begin event %d has no name", i)
			}
			depth[*ev.Tid]++
		case "E":
			depth[*ev.Tid]--
			if depth[*ev.Tid] < 0 {
				return fmt.Errorf("obs: event %d ends a span that was never begun on tid %d", i, *ev.Tid)
			}
		case "C":
			if ev.Name == nil || *ev.Name == "" {
				return fmt.Errorf("obs: counter event %d has no name", i)
			}
			if _, ok := ev.Args["value"]; !ok {
				return fmt.Errorf("obs: counter event %d has no args.value", i)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			return fmt.Errorf("obs: tid %d has %d unbalanced begin events", tid, d)
		}
	}
	return nil
}
