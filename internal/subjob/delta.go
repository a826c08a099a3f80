package subjob

import (
	"fmt"
	"maps"

	"streamha/internal/element"
	"streamha/internal/pe"
	"streamha/internal/queue"
)

// Delta is an incremental checkpoint: the changes of one subjob copy since
// the immediately preceding checkpoint in the same chain. PE state travels
// as byte-range patches (see pe.DeltaSnapshot) with a per-PE full-snapshot
// fallback, the output queue as an OutputDelta carrying only newly
// published elements, and pipes/input — which are small, bounded queues —
// as whole replacements guarded by presence flags so the individual
// variant can ship a single PE's share.
//
// A delta is only meaningful relative to the checkpoint whose sequence
// number equals PrevSeq: the store folds an unbroken chain of deltas into
// its retained full image and must drop (without acknowledging) any delta
// whose predecessor it never stored.
type Delta struct {
	SubjobID string
	// PrevSeq is the checkpoint sequence number this delta chains onto.
	PrevSeq uint64
	// Consumed is the first PE's consumption positions at capture time (or
	// the input-queue accept positions for variants that include the input
	// queue); nil leaves the folded snapshot's positions unchanged.
	Consumed map[string]uint64
	// PEDeltas[i] is PE i's state patch; nil when the PE is absent from
	// this delta or shipped in full instead.
	PEDeltas [][]byte
	// PEFull[i] is PE i's full state, the fallback when the logic cannot
	// produce a delta (no baseline after a restore, or not a DeltaLogic).
	PEFull [][]byte
	// Pipes[i] replaces pipe i's content when PipeSet[i] is true.
	Pipes   [][]element.Element
	PipeSet []bool
	// Input replaces the input-queue content when HasInput is true.
	Input    []queue.In
	HasInput bool
	// Output advances the output queue when HasOutput is true.
	Output    queue.OutputDelta
	HasOutput bool
	// StateUnits is the shipped internal-state size in element-equivalents
	// (patch bytes rounded up to elements, plus full fallbacks).
	StateUnits int
}

// ElementUnits returns the delta's shipped size in data-element
// equivalents, the accounting unit of the paper's overhead figures.
func (d *Delta) ElementUnits() int {
	n := d.StateUnits + len(d.Input)
	if d.HasOutput {
		n += len(d.Output.New)
	}
	for i, p := range d.Pipes {
		if i < len(d.PipeSet) && d.PipeSet[i] {
			n += len(p)
		}
	}
	return n
}

// AsDelta returns the snapshot as a delta that replaces every PE's state
// and every pipe and carries no output section: folded into another copy,
// it moves this copy's state but leaves the receiver's output queue, and so
// its sequence space, alone. The delta shares the snapshot's slices.
func (s *Snapshot) AsDelta() *Delta {
	set := make([]bool, len(s.Pipes))
	for i := range set {
		set[i] = true
	}
	return &Delta{
		SubjobID:   s.SubjobID,
		Consumed:   s.Consumed,
		PEDeltas:   make([][]byte, len(s.PEStates)),
		PEFull:     s.PEStates,
		Pipes:      s.Pipes,
		PipeSet:    set,
		StateUnits: s.StateUnits,
	}
}

// ApplyDelta folds a delta into a full snapshot image: patched PE states,
// replaced pipes/input, and an advanced output window. It keeps nothing of
// the delta, whose PE bytes alias the payload it was decoded from and whose
// other values a Decoder reuses: the first patch of a PE state copies it,
// later patches of that copy are in place, a full replacement from the
// delta is copied into the PE's owned buffer, and the pipes, input,
// consumed map and new output elements are copied into the snapshot's own
// (which must therefore belong to it, as a decoded snapshot's do). Chain
// validity (PrevSeq) is the caller's responsibility; shape mismatches and
// non-contiguous output deltas fail without guaranteeing an unmodified
// snapshot, so callers must discard the image on error.
func (s *Snapshot) ApplyDelta(d *Delta) error {
	if d.SubjobID != s.SubjobID {
		return fmt.Errorf("subjob: delta for %q folded into snapshot of %q", d.SubjobID, s.SubjobID)
	}
	if len(d.PEDeltas) != len(s.PEStates) || len(d.PEFull) != len(s.PEStates) {
		return fmt.Errorf("subjob: delta covers %d PEs, snapshot has %d", len(d.PEDeltas), len(s.PEStates))
	}
	if len(d.Pipes) != len(s.Pipes) || len(d.PipeSet) != len(s.Pipes) {
		return fmt.Errorf("subjob: delta covers %d pipes, snapshot has %d", len(d.Pipes), len(s.Pipes))
	}
	if s.owned == nil {
		s.owned = make([]bool, len(s.PEStates))
	}
	for i := range d.PEFull {
		switch {
		case d.PEFull[i] != nil:
			dst := []byte{}
			if s.owned[i] {
				dst = s.PEStates[i][:0]
			}
			s.PEStates[i] = append(dst, d.PEFull[i]...)
			s.owned[i] = true
		case d.PEDeltas[i] != nil:
			if !s.owned[i] {
				s.PEStates[i] = append([]byte(nil), s.PEStates[i]...)
				s.owned[i] = true
			}
			patched, err := pe.ApplyPatch(s.PEStates[i], d.PEDeltas[i])
			if err != nil {
				return fmt.Errorf("subjob: fold PE %d delta: %w", i, err)
			}
			s.PEStates[i] = patched
		}
	}
	for i, set := range d.PipeSet {
		if set {
			s.Pipes[i] = append(s.Pipes[i][:0], d.Pipes[i]...)
		}
	}
	if d.HasInput {
		s.Input = append(s.Input[:0], d.Input...)
	}
	if d.HasOutput {
		if err := s.Output.ApplyDelta(d.Output); err != nil {
			return fmt.Errorf("subjob: fold output delta: %w", err)
		}
	}
	if d.Consumed != nil {
		if s.Consumed == nil {
			s.Consumed = make(map[string]uint64, len(d.Consumed))
		}
		clear(s.Consumed)
		maps.Copy(s.Consumed, d.Consumed)
	}
	return nil
}
