package sim

import (
	"encoding/gob"
	"fmt"
	"io"

	"gatesim/internal/logic"
)

// Long signoff simulations benefit from on-disk checkpoints: a run can be
// interrupted and resumed, or forked to explore different stimulus tails.
// A snapshot captures the engine's persistent state — the flat base
// checkpoint and commitment arrays plus per-net retained events and
// watermarks. Scratch state (soft-resume snapshots, dirty bits) is
// recomputed, so snapshots are only valid at quiescent points: after an
// Advance returned and before new stimulus is injected.

// snapshotVersion guards against loading snapshots written by an
// incompatible build. Version 2 stores the flat slot arrays introduced with
// the plan-based engine instead of per-gate records.
const snapshotVersion = 2

type snapshotNet struct {
	BaseVal         logic.Value
	Start           int64
	Times           []int64
	Vals            []logic.Value
	DeterminedUntil int64
}

type snapshot struct {
	Version  int
	Design   string
	NumGates int
	NumNets  int

	// Flat slot arrays in the plan's pin layouts.
	BaseCur        []int64
	BaseVals       []logic.Value
	BaseStates     []logic.Value
	SemBase        []logic.Value
	BaseNow        []int64 // per gate
	LastCommitted  []logic.Value
	CommittedUntil []int64

	Nets      []snapshotNet
	ReadMarks []int64
}

// SaveSnapshot serializes the engine state. Call only between Advance calls
// (never mid-convergence). A poisoned engine refuses to snapshot: the state
// it would capture is suspect.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	if e.poison != nil {
		return e.poisonError("snapshot")
	}
	if e.lanes > 1 {
		return fmt.Errorf("sim: snapshots are not supported in lane mode")
	}
	s := snapshot{
		Version:        snapshotVersion,
		Design:         e.nl.Name,
		NumGates:       len(e.gate),
		NumNets:        len(e.queues),
		BaseCur:        e.baseCur,
		BaseVals:       e.baseVals,
		BaseStates:     e.baseStates,
		SemBase:        e.semBase,
		BaseNow:        make([]int64, len(e.gate)),
		LastCommitted:  e.lastCommitted,
		CommittedUntil: e.committedUntil,
		Nets:           make([]snapshotNet, len(e.queues)),
		ReadMarks:      e.readMarks,
	}
	for i := range e.gate {
		s.BaseNow[i] = e.gate[i].baseNow
	}
	for i := range e.queues {
		q := &e.queues[i]
		sn := snapshotNet{
			BaseVal:         q.BaseVal(),
			Start:           q.Start(),
			DeterminedUntil: q.DeterminedUntil(),
		}
		for k := q.Start(); k < q.Len(); k++ {
			ev := q.MustAt(k)
			sn.Times = append(sn.Times, ev.Time)
			sn.Vals = append(sn.Vals, ev.Val)
		}
		s.Nets[i] = sn
	}
	return gob.NewEncoder(w).Encode(&s)
}

// LoadSnapshot restores state saved by SaveSnapshot into an engine built
// for the *same* netlist and library. All prior engine state is replaced —
// including poison: restoring a known-good snapshot is the sanctioned way
// to bring a poisoned engine back into service.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	if e.lanes > 1 {
		return fmt.Errorf("sim: snapshots are not supported in lane mode")
	}
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("sim: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if s.Design != e.nl.Name || s.NumGates != len(e.gate) || s.NumNets != len(e.queues) {
		return fmt.Errorf("sim: snapshot is for design %q (%d gates, %d nets), engine has %q (%d, %d)",
			s.Design, s.NumGates, s.NumNets, e.nl.Name, len(e.gate), len(e.queues))
	}
	if len(s.BaseCur) != len(e.baseCur) || len(s.BaseStates) != len(e.baseStates) ||
		len(s.SemBase) != len(e.semBase) || len(s.ReadMarks) != len(e.readMarks) {
		return fmt.Errorf("sim: snapshot slot-array shape mismatch")
	}
	copy(e.baseCur, s.BaseCur)
	copy(e.baseVals, s.BaseVals)
	copy(e.baseStates, s.BaseStates)
	copy(e.semBase, s.SemBase)
	copy(e.lastCommitted, s.LastCommitted)
	copy(e.committedUntil, s.CommittedUntil)
	copy(e.readMarks, s.ReadMarks)
	for i := range e.gate {
		g := &e.gate[i]
		g.baseNow = s.BaseNow[i]
		g.softValid = false
		g.futureMin = 0 // conservative until the first visit
		g.detUntil.Store(0)
		// The idle-walk memo was proven against the replaced world's soft
		// values; stale masks would be unsound against the restored state.
		g.maskDet, g.maskUndet = 0, 0
	}
	// Re-mark every gate so the first sweep after the restore rebuilds every
	// soft snapshot. Staged frontier entries belong to the replaced world:
	// drop them.
	e.resetFrontier()
	e.markAllDirty()
	e.lastDirty = len(e.gate)
	for i := range e.queues {
		sn := &s.Nets[i]
		// Rebuild the queue in place: base value, absolute start index,
		// events. Slot pointers in inQ/outQ stay valid because the queue
		// slice itself is reused.
		q := &e.queues[i]
		q.InitAt(&e.pool, sn.BaseVal, sn.Start)
		for k := range sn.Times {
			q.Append(sn.Times[k], sn.Vals[k])
		}
		q.SetDeterminedUntil(sn.DeterminedUntil)
	}
	e.poison = nil
	return nil
}
