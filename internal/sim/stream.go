package sim

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
)

// Change is one stimulus event for the streaming driver.
type Change struct {
	Net  netlist.NetID
	Time int64
	Val  logic.Value
}

// StimulusSource yields primary-input changes in nondecreasing time order.
// Implementations return io.EOF when exhausted.
type StimulusSource interface {
	Next() (Change, error)
}

// SliceSource adapts an in-memory stimulus slice (sorted by time here).
type SliceSource struct {
	changes []Change
	pos     int
}

// NewSliceSource sorts the changes by time (stable, preserving per-net
// order) and returns a source over them.
func NewSliceSource(changes []Change) *SliceSource {
	s := &SliceSource{changes: append([]Change(nil), changes...)}
	sort.SliceStable(s.changes, func(a, b int) bool { return s.changes[a].Time < s.changes[b].Time })
	return s
}

// Next implements StimulusSource.
func (s *SliceSource) Next() (Change, error) {
	if s.pos >= len(s.changes) {
		return Change{}, io.EOF
	}
	c := s.changes[s.pos]
	s.pos++
	return c, nil
}

// StreamConfig configures RunStream.
type StreamConfig struct {
	// SlicePS is the streaming window length; input is consumed and the
	// simulation converged one window at a time, with event storage
	// reclaimed between windows. Default 65536 ps.
	SlicePS int64
	// Watch lists the nets whose committed events are reported. Default:
	// the primary outputs.
	Watch []netlist.NetID
	// OnEvent receives watched events in global time order (ties broken by
	// net id). May be nil (useful for pure performance runs).
	OnEvent func(nid netlist.NetID, ev event.Event)
	// AfterSlice, when non-nil, runs at the end of every completed slice —
	// after the window's events are flushed and Checkpoint has folded
	// history, i.e. at a quiescent point where SaveSnapshot is legal and the
	// slice's read marks are recorded. `end` is the absolute end time of the
	// slice just finished. Returning a non-nil error aborts the stream with a
	// resumable *SimError (Op "stream"): the engine is NOT poisoned, events
	// already emitted stay emitted, and a later RunStreamCtx may continue
	// from the same source position. Serving layers hang periodic snapshot
	// checkpoints, event budgets and suspend gates off this seam.
	AfterSlice func(end int64) error
}

// RunStream drives the engine from a stimulus source in streaming slices:
// the paper's streamed signal I/O (§III-D.2). Memory stays bounded by the
// slice contents regardless of total trace length. It is RunStreamCtx
// without cancellation.
func (e *Engine) RunStream(src StimulusSource, cfg StreamConfig) error {
	return e.RunStreamCtx(context.Background(), src, cfg)
}

// RunStreamCtx is RunStream under a context: the context is threaded into
// every slice's AdvanceCtx, so cancellation aborts within one sweep
// boundary. Events already flushed stay flushed; the engine remains
// resumable (see AdvanceCtx).
func (e *Engine) RunStreamCtx(ctx context.Context, src StimulusSource, cfg StreamConfig) error {
	if e.poison != nil {
		return e.poisonError("stream")
	}
	if e.lanes > 1 {
		return fmt.Errorf("sim: RunStream on a lane-mode engine; use RunLaneStream")
	}
	pending, err := src.Next()
	if err != nil && err != io.EOF {
		return err
	}
	havePending := err == nil
	var batch []Change // reused: one slice's changes, read before any is injected
	inject := func(end int64) (bool, error) {
		batch = batch[:0]
		for havePending && pending.Time < end {
			batch = append(batch, pending)
			var err error
			if pending, err = src.Next(); err == io.EOF {
				havePending = false
			} else if err != nil {
				return false, err
			}
		}
		for _, c := range batch {
			if err := e.Inject(c.Net, c.Time, c.Val); err != nil {
				return false, err
			}
		}
		return havePending, nil
	}
	var emit func(nid netlist.NetID, _ int64, ev event.Event)
	if cfg.OnEvent != nil {
		emit = func(nid netlist.NetID, _ int64, ev event.Event) { cfg.OnEvent(nid, ev) }
	}
	return e.runSlices(ctx, pending.Time, havePending, cfg.SlicePS, cfg.Watch, inject, emit, cfg.AfterSlice)
}

// runSlices is the slice loop behind RunStreamCtx and RunLaneStreamCtx.
// Slices are slicePS long (default 65536 ps), aligned to multiples of it,
// the first holding time first; more reports whether any stimulus exists.
// Per slice: inject feeds every change before the slice end and reports
// whether stimulus remains, the engine converges to the end, the watched
// events below the slowest watched watermark are handed to emit (when
// non-nil) in global time order, ties by net id, with their queue index,
// history is checkpointed, and afterSlice runs. Once stimulus runs out the
// engine finishes and every remaining watched event is emitted. watch
// defaults to the primary outputs.
func (e *Engine) runSlices(ctx context.Context, first int64, more bool, slicePS int64, watch []netlist.NetID,
	inject func(end int64) (bool, error), emit func(nid netlist.NetID, idx int64, ev event.Event),
	afterSlice func(end int64) error) error {
	if slicePS <= 0 {
		slicePS = 65536
	}
	if watch == nil {
		watch = e.nl.PortsOut
	}
	// Start each watched net at its queue start, not at absolute index 0: a
	// snapshot-restored engine retains queues whose indices begin past zero.
	// A read mark recorded before the snapshot resumes exactly where the
	// previous stream stopped reading.
	read := make(map[netlist.NetID]int64, len(watch))
	for _, nid := range watch {
		i := e.Events(nid).Start()
		if m := e.readMarks[nid]; m != unreadMark && m > i {
			i = m
		}
		read[nid] = i
	}
	var emitBuf []watchedEvent
	flush := func(limit int64) error {
		emitBuf = emitBuf[:0]
		for _, nid := range watch {
			q := e.Events(nid)
			i := read[nid]
			if i < q.Start() {
				return fmt.Errorf("sim: stream read mark trimmed on %s", e.nl.Nets[nid].Name)
			}
			for ; i < q.Len(); i++ {
				ev := q.MustAt(i)
				if ev.Time >= limit {
					break
				}
				emitBuf = append(emitBuf, watchedEvent{nid, i, ev})
			}
			read[nid] = i
			e.SetReadMark(nid, i)
		}
		if emit != nil {
			sort.Slice(emitBuf, func(a, b int) bool {
				if emitBuf[a].ev.Time != emitBuf[b].ev.Time {
					return emitBuf[a].ev.Time < emitBuf[b].ev.Time
				}
				return emitBuf[a].nid < emitBuf[b].nid
			})
			for _, we := range emitBuf {
				emit(we.nid, we.idx, we.ev)
			}
		}
		return nil
	}

	start := (first / slicePS) * slicePS
	for more {
		end := start + slicePS
		sliceStart := time.Now()
		e.obs.trace.Begin(e.obs.tid, "slice")
		var err error
		if more, err = inject(end); err == nil {
			err = e.AdvanceCtx(ctx, end)
		}
		// Events are only safe to emit in global order up to the slowest
		// watched watermark.
		limit := end
		for _, nid := range watch {
			if w := e.Events(nid).DeterminedUntil(); w < limit {
				limit = w
			}
		}
		if err == nil {
			err = flush(limit)
		}
		if err != nil {
			e.obs.trace.End(e.obs.tid)
			return err
		}
		e.Checkpoint()
		e.obs.trace.End(e.obs.tid)
		e.obs.sliceNS.Observe(time.Since(sliceStart).Nanoseconds())
		e.emitSliceCounters(limit)
		if afterSlice != nil {
			if err := afterSlice(end); err != nil {
				return &SimError{Op: "stream", Cause: err}
			}
		}
		start = end
	}
	if err := e.FinishCtx(ctx); err != nil {
		return err
	}
	if err := flush(TimeInf + 1); err != nil {
		return err
	}
	e.emitSliceCounters(TimeInf)
	return nil
}

// emitSliceCounters samples the slice-boundary counter tracks: the trace's
// "where did the run get to" lanes (events committed, watermark advance,
// downgrades, pool parks/wakes) and the live watermark gauge. All sinks are
// nil-safe, so a disabled run pays a few pointer tests per slice.
func (e *Engine) emitSliceCounters(watermark int64) {
	e.obs.watermark.Set(watermark)
	if e.obs.trace == nil {
		return
	}
	ps := e.exec.pool.Stats()
	e.obs.trace.Count("sim.watermark_ps", watermark)
	e.obs.trace.Count("sim.downgrades", e.stats.downgrades.Load())
	e.obs.trace.Count("pool.parks", ps.Parks)
	e.obs.trace.Count("pool.wakes", ps.Wakes)
}

// watchedEvent is one watched event awaiting emission: its net, its index
// in the net's queue (which lane mode needs to read the lane store), and
// the event.
type watchedEvent struct {
	nid netlist.NetID
	idx int64
	ev  event.Event
}
