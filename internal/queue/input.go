package queue

import (
	"sync"

	"streamha/internal/element"
)

// In is one queued input element together with the logical stream it
// arrived on, so that consumption positions can be acknowledged per stream.
type In struct {
	Stream string
	Elem   element.Element
}

// Input is the merged input queue of a subjob copy. It accepts data from
// one or more logical upstream streams, deduplicates by (stream, seq) —
// which covers both active-standby duplicate delivery and post-recovery
// retransmission — and feeds a single FIFO to the subjob's first PE.
//
// Consumption is non-blocking: TryPop drains what is available and Ready
// signals (edge-triggered, capacity one) when new data arrives, so
// consumers can select over data and control channels without a wakeup
// race. A queue has exactly one consumer (a PE loop or a sink), and TryPop
// hands it batches in a buffer the queue reuses, so the consumer must be
// done with one batch before it pops the next.
//
// Sequence numbers on each stream must arrive contiguously; the transport
// is FIFO and retransmission always restarts from the consumer's
// acknowledged floor, so a gap can only be produced by a protocol bug.
// Gaps are counted and the offending elements dropped rather than silently
// accepted out of order.
type Input struct {
	mu       sync.Mutex
	buf      []In
	popped   []In              // TryPop's result, reused by the next TryPop
	accepted map[string]uint64 // highest accepted seq per stream
	// split/part form the consumer-side partition guard of a keyed-parallel
	// instance: elements whose key routes elsewhere in the live table are
	// dropped (but still advance the dedup floor). The guard consults the
	// shared routing table at push time, so an element that raced a
	// rescaling table flip is never processed by two instances.
	split *Partitioner
	part  int
	gaps  int
	dups  int
	ready chan struct{}
}

// NewInput returns an empty input queue accepting the given streams.
func NewInput(streams ...string) *Input {
	q := &Input{
		accepted: make(map[string]uint64, len(streams)),
		ready:    make(chan struct{}, 1),
	}
	for _, s := range streams {
		q.accepted[s] = 0
	}
	return q
}

// AddStream registers an additional upstream stream.
func (q *Input) AddStream(stream string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.accepted[stream]; !ok {
		q.accepted[stream] = 0
	}
}

// SetPartition installs the partition guard: the queue belongs to
// partition-instance part of the stage routed by split, and elements whose
// key routes to a sibling instance are accepted (for dedup purposes) but
// not queued. A nil split removes the guard.
func (q *Input) SetPartition(split *Partitioner, part int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.split = split
	q.part = part
}

// Repartition re-filters the queued elements against the live routing
// table. A rescaling cutover calls it on the donor instance right after the
// table flip, so elements of moved partitions that were already buffered
// are discarded here and processed only by the instance they moved to.
func (q *Input) Repartition() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.split == nil {
		return
	}
	kept := q.buf[:0]
	for _, in := range q.buf {
		if q.split.Instance(in.Elem.Key) == q.part {
			kept = append(kept, in)
		}
	}
	q.buf = kept
}

// mineLocked reports whether e routes to this queue's partition instance.
func (q *Input) mineLocked(e element.Element) bool {
	return q.split == nil || q.split.Instance(e.Key) == q.part
}

// Push offers a batch of elements that arrived on stream. Duplicates
// (seq <= accepted) are dropped; a gap (seq > accepted+1) is counted and
// dropped. Elements on unknown streams are ignored.
func (q *Input) Push(stream string, elems []element.Element) {
	q.mu.Lock()
	if _, ok := q.accepted[stream]; !ok {
		q.mu.Unlock()
		return
	}
	appended := false
	for _, e := range elems {
		last := q.accepted[stream]
		switch {
		case e.Seq <= last:
			q.dups++
		case e.Seq == last+1:
			q.accepted[stream] = e.Seq
			if !q.mineLocked(e) {
				continue // foreign partition: covered, not queued
			}
			q.buf = append(q.buf, In{Stream: stream, Elem: e})
			appended = true
		default:
			q.gaps++
		}
	}
	q.mu.Unlock()
	if appended {
		q.signal()
	}
}

// PushCovered offers a partition-filtered batch together with the covered
// watermark: the highest sequence number of the unfiltered prefix the batch
// was cut from (transport.Message.Seq on partitioned sends). Sequence
// numbers inside the batch rise but may skip the elements routed to sibling
// instances, so contiguity is not required; after queuing, the stream's
// dedup floor is raised to covered. Replayed prefixes (seq <= accepted) are
// dropped as duplicates exactly like in Push.
func (q *Input) PushCovered(stream string, elems []element.Element, covered uint64) {
	q.mu.Lock()
	last, ok := q.accepted[stream]
	if !ok {
		q.mu.Unlock()
		return
	}
	appended := false
	for _, e := range elems {
		if e.Seq <= last {
			q.dups++
			continue
		}
		last = e.Seq
		if !q.mineLocked(e) {
			continue
		}
		q.buf = append(q.buf, In{Stream: stream, Elem: e})
		appended = true
	}
	if covered > last {
		last = covered
	}
	q.accepted[stream] = last
	q.mu.Unlock()
	if appended {
		q.signal()
	}
}

func (q *Input) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// Ready returns a channel that receives a token when data may be
// available. It is edge-triggered with capacity one: consumers must call
// TryPop until it returns nothing before blocking on Ready again.
func (q *Input) Ready() <-chan struct{} { return q.ready }

// TryPop removes and returns up to max queued elements without blocking.
// The returned slice belongs to the queue and is valid until the next
// TryPop, which overwrites it.
func (q *Input) TryPop(max int) []In {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.buf)
	if n == 0 {
		return nil
	}
	if n > max {
		n = max
	}
	q.popped = append(q.popped[:0], q.buf[:n]...)
	// Compact in place: the survivors slide to the front of the same
	// backing array instead of reallocating it on every pop.
	k := copy(q.buf, q.buf[n:])
	q.buf = q.buf[:k]
	return q.popped
}

// Accepted returns the highest accepted sequence number for stream.
func (q *Input) Accepted(stream string) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.accepted[stream]
}

// SetAccepted aligns the queue with a restored or read-back snapshot whose
// consumption positions are pos. Queued elements at or below a stream's
// position are discarded (the state they produced is already in the
// snapshot), and the dedup high-water mark is raised to at least the
// position. The mark never moves backward: elements the queue has already
// accepted stay accepted, so in-flight retransmissions are recognized as
// duplicates rather than gaps.
func (q *Input) SetAccepted(pos map[string]uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for s, v := range pos {
		if v > q.accepted[s] {
			q.accepted[s] = v
		}
	}
	kept := q.buf[:0]
	for _, in := range q.buf {
		if in.Elem.Seq > pos[in.Stream] {
			kept = append(kept, in)
		}
	}
	q.buf = kept
}

// AcceptedAll returns the highest accepted sequence number of every stream.
func (q *Input) AcceptedAll() map[string]uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]uint64, len(q.accepted))
	for s, v := range q.accepted {
		out[s] = v
	}
	return out
}

// SnapshotBuf returns a copy of the queued (unprocessed) elements. Only the
// synchronous and individual checkpointing variants include input queues in
// checkpoints; sweeping checkpointing excludes them by design.
func (q *Input) SnapshotBuf() []In {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]In(nil), q.buf...)
}

// Len returns the number of queued elements.
func (q *Input) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Drops returns the counts of duplicate and gap drops, for tests and
// protocol assertions.
func (q *Input) Drops() (dups, gaps int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dups, q.gaps
}
