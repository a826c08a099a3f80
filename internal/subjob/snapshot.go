package subjob

import (
	"fmt"

	"streamha/internal/element"
	"streamha/internal/queue"
)

// Snapshot is the checkpointable state of one subjob copy, per the sweeping
// checkpointing protocol: every PE's internal state, the inter-PE pipe
// contents (the upstream PE's output queue in the paper's model), the final
// output queue, and the consumption positions of the first PE. Input queue
// contents are deliberately excluded — they are recovered by upstream
// retransmission — which is the protocol's main overhead saving.
type Snapshot struct {
	SubjobID string
	// Consumed maps each logical input stream to the highest sequence number
	// whose processing results this snapshot covers. It becomes the
	// cumulative acknowledgment once the snapshot is stored.
	Consumed map[string]uint64
	// PEStates holds each PE's Logic snapshot, in pipeline order.
	PEStates [][]byte
	// Pipes holds the content of each inter-PE pipe; Pipes[i] connects PE i
	// to PE i+1.
	Pipes [][]element.Element
	// Input holds the input queue's unprocessed elements. Only the
	// synchronous and individual checkpointing variants populate it;
	// sweeping checkpointing excludes input queues (they are recovered by
	// upstream retransmission).
	Input []queue.In
	// Output is the final output queue's state.
	Output queue.OutputSnapshot
	// StateUnits is the total internal-state size in element-equivalents.
	StateUnits int

	// owned[i] records that PEStates[i] is private memory ApplyDelta may
	// write in place. A decoded snapshot's PE states alias the payload it
	// was decoded from, which belongs to its sender, so nothing is owned
	// until OwnStates or ApplyDelta has copied it.
	owned []bool
}

// OwnStates copies every PE state into memory the snapshot owns, so it no
// longer aliases the payload it was decoded from. The copies reuse the
// arrays prev owns where they have room; prev, an image s replaces, must
// not be used afterwards.
func (s *Snapshot) OwnStates(prev *Snapshot) {
	if s.owned == nil {
		s.owned = make([]bool, len(s.PEStates))
	}
	for i, st := range s.PEStates {
		if s.owned[i] || st == nil {
			continue
		}
		var dst []byte
		if prev != nil && i < len(prev.owned) && prev.owned[i] {
			dst = prev.PEStates[i][:0]
			prev.PEStates[i], prev.owned[i] = nil, false
		}
		s.PEStates[i] = append(dst, st...)
		s.owned[i] = true
	}
}

// ElementUnits returns the snapshot's size in data-element equivalents,
// the accounting unit of the paper's overhead figures: queued elements plus
// internal state expressed in elements.
func (s *Snapshot) ElementUnits() int {
	n := s.StateUnits + len(s.Output.Buf) + len(s.Input)
	for _, p := range s.Pipes {
		n += len(p)
	}
	return n
}

// Clone returns a deep copy of the snapshot. The checkpoint store folds
// deltas into its retained image in place, so consumers that hold a
// snapshot across that folding (Store.Latest) receive an independent copy.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		SubjobID:   s.SubjobID,
		PEStates:   make([][]byte, len(s.PEStates)),
		Pipes:      make([][]element.Element, len(s.Pipes)),
		Output:     s.Output,
		StateUnits: s.StateUnits,
	}
	if s.Consumed != nil {
		c.Consumed = make(map[string]uint64, len(s.Consumed))
		for k, v := range s.Consumed {
			c.Consumed[k] = v
		}
	}
	for i, st := range s.PEStates {
		if st != nil {
			c.PEStates[i] = append([]byte(nil), st...)
		}
	}
	for i, p := range s.Pipes {
		c.Pipes[i] = element.CloneBatch(p)
	}
	if s.Input != nil {
		c.Input = append([]queue.In(nil), s.Input...)
	}
	c.Output.Buf = element.CloneBatch(s.Output.Buf)
	return c
}

// Encode serializes the snapshot for a checkpoint message using the binary
// snapshot codec (see codec.go). The returned slice is freshly allocated
// at its exact size and owned by the caller.
func (s *Snapshot) Encode() ([]byte, error) {
	return s.AppendTo(make([]byte, 0, s.EncodedSize())), nil
}

// DecodeSnapshot parses an encoded full snapshot, detected by its SHS2
// magic. The check is a prefix match, so an empty or zero-PE snapshot —
// whose encoding is the bare magic plus a handful of zero counts — still
// decodes, and a payload with no known magic is rejected with errNoMagic.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if hasMagic(b, snapMagic) {
		s := &Snapshot{}
		if err := decodeSnapshotBinary(b, s, nil); err != nil {
			return nil, err
		}
		return s, nil
	}
	if hasMagic(b, deltaMagic) {
		return nil, fmt.Errorf("subjob: delta checkpoint where full snapshot expected")
	}
	if hasMagic(b, partialMagic) {
		return nil, fmt.Errorf("subjob: partial checkpoint where full snapshot expected")
	}
	return nil, errNoMagic
}
