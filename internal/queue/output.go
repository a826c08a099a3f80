// Package queue implements the input and output queues that connect
// processing elements across machines, including the cumulative
// acknowledgment and trimming protocol that sweeping checkpointing is built
// on (Section III of the paper).
//
// An output queue assigns an incremental sequence number to every newly
// produced element and retains elements until every active downstream copy
// has acknowledged them. A downstream acknowledges data only after the data
// has been processed and the resulting state checkpointed, so any element a
// failed copy might need again is still retained upstream and can be
// retransmitted. Input queues deduplicate by (logical stream, sequence
// number), which simultaneously handles active-standby duplicate delivery
// and post-recovery retransmission.
//
// # Batch ownership
//
// Publish takes ownership of the batch slice passed to it: the queue
// stamps sequence numbers into it and then shares that same slice, without
// copying, as the payload of the data message sent to every active
// subscriber (retention uses a separate internal copy, so retransmission
// never reads the caller's slice). Callers must therefore hand Publish a
// batch they will neither mutate nor reuse afterwards; reading it — e.g.
// to inspect the assigned sequence numbers via Publish's return value — is
// fine. Symmetrically, message handlers must treat received element slices
// as immutable, since every subscriber of a stream observes the same
// backing array. On the consuming side the rule is reversed: the batch
// Input.TryPop returns belongs to the input queue and is overwritten by
// the next TryPop.
package queue

import (
	"fmt"
	"sync"

	"streamha/internal/element"
	"streamha/internal/transport"
)

// Sender transmits a message to a node. Output queues use it to push data
// to downstream copies; the subjob runtime provides the machine's endpoint.
type Sender func(to transport.NodeID, msg transport.Message)

// Subscriber identifies one downstream copy receiving this output stream.
type Subscriber struct {
	// Node is the machine hosting the downstream copy.
	Node transport.NodeID
	// Stream is the input stream name the downstream copy listens on.
	Stream string
	// Active controls whether data flows. Hybrid standby pre-creates
	// inactive subscriptions ("early connection", isActive=false in the
	// paper) so that switchover is a flag flip.
	Active bool
	// part is the partition-instance index this subscriber consumes, or -1
	// for an unfiltered subscriber. Partitioned sends carry only the
	// elements routed to part, plus a covered-sequence watermark (see
	// Publish), so the consumer's dedup floor still advances past the
	// elements that went to sibling instances.
	part int

	acked uint64 // guarded by Output.mu

	// sendMu serializes every transmission to this subscriber — publish
	// fan-out (which runs outside Output.mu) and activation replay — so
	// the two cannot interleave and double-deliver.
	sendMu sync.Mutex
	// sent is the highest sequence number ever transmitted to this
	// subscriber, guarded by sendMu. Replay resumes after it (unless
	// forced), and publish fan-out skips any prefix a concurrent replay
	// already covered, closing the duplicate-delivery race between an
	// in-flight Publish and an Activate replay.
	sent uint64
}

// Output is the output queue of the last PE of a subjob copy for one
// logical stream. It is safe for concurrent use.
type Output struct {
	// StreamID names the logical stream. All copies of the producing subjob
	// share it, so downstream dedup is replica-agnostic.
	StreamID string

	mu      sync.Mutex
	send    Sender
	buf     ring   // elements > floor, in seq order
	floor   uint64 // highest trimmed (fully acked) seq
	nextSeq uint64 // seq to assign to the next published element
	subs    map[transport.NodeID]*Subscriber
	// active is an immutable snapshot of the active fan-out destinations,
	// rebuilt whenever subscriptions change. Publish reads the slice header
	// under the lock and iterates it outside the lock, so the hot path
	// neither allocates nor holds the lock during sends.
	active []*Subscriber
	// router is the keyed-parallel routing table shared by every producer
	// copy feeding a partitioned stage; nil when no subscriber filters by
	// partition. Partition-filtered subscribers consult it per batch.
	router *Partitioner
	onTrim func()

	// assumedLost counts retained elements deliberately skipped (not
	// replayed) by ActivateSkipReplay — the output-queue share of the
	// approx policy's admitted loss. skippedReplays counts the skips.
	assumedLost    uint64
	skippedReplays int
}

// NewOutput creates an output queue for streamID that transmits via send.
func NewOutput(streamID string, send Sender) *Output {
	return &Output{
		StreamID: streamID,
		send:     send,
		nextSeq:  1,
		subs:     make(map[transport.NodeID]*Subscriber),
	}
}

// SetOnTrim registers a callback invoked (without the queue lock held)
// whenever trimming removes at least one element. Sweeping checkpointing
// checkpoints the PE immediately after its output queue is trimmed.
func (o *Output) SetOnTrim(f func()) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.onTrim = f
}

// rebuildActiveLocked recomputes the immutable fan-out snapshot. Called
// under the lock whenever subscription state changes; the old slice is
// never mutated, so a Publish that captured it keeps iterating a
// consistent view.
func (o *Output) rebuildActiveLocked() {
	active := make([]*Subscriber, 0, len(o.subs))
	for _, s := range o.subs {
		if s.Active {
			active = append(active, s)
		}
	}
	o.active = active
}

// SetPartitioner installs the keyed-parallel routing table consulted by
// partition-filtered subscribers. Every copy of the producing subjob must
// share the same Partitioner so replicas route identically.
func (o *Output) SetPartitioner(pt *Partitioner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.router = pt
}

// Subscribe adds a downstream copy. If active, data published from now on
// flows to it; its acknowledgment position starts at the current trim
// floor, which is exactly the data a checkpoint-restored copy already has.
func (o *Output) Subscribe(node transport.NodeID, stream string, active bool) {
	o.SubscribePart(node, stream, active, -1)
}

// SubscribePart adds a downstream copy that consumes only the elements
// routed to partition-instance part (-1 subscribes unfiltered, like
// Subscribe). Partitioned sends carry a covered-sequence watermark so the
// consumer's dedup floor advances past sibling instances' elements.
func (o *Output) SubscribePart(node transport.NodeID, stream string, active bool, part int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.subs[node] = &Subscriber{
		Node:   node,
		Stream: stream,
		Active: active,
		part:   part,
		acked:  o.floor,
		sent:   o.floor,
	}
	o.rebuildActiveLocked()
}

// Unsubscribe removes the downstream copy on node.
func (o *Output) Unsubscribe(node transport.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.subs, node)
	o.rebuildActiveLocked()
}

// Activate makes the subscription for node active (or inactive) and, when
// activating, retransmits every retained element the subscriber has not
// acknowledged. Retransmission and subsequent publishes share the queue
// lock, so the subscriber observes a contiguous sequence.
func (o *Output) Activate(node transport.NodeID, active bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.subs[node]
	if !ok {
		return
	}
	wasActive := s.Active
	s.Active = active
	o.rebuildActiveLocked()
	if !active || wasActive {
		return
	}
	// A newly activated standby resumes from the trim floor: everything it
	// has not acknowledged is still retained and is replayed now.
	if s.acked < o.floor {
		s.acked = o.floor
	}
	o.replayLocked(s, false)
}

// PendingReplay estimates how many retained elements activating the
// subscription for node would replay: everything between its acknowledged
// position and the retention head. An already-active or unknown
// subscriber pends nothing. The approx policy sums this across upstreams
// to decide whether skipping the replay fits its error budget.
func (o *Output) PendingReplay(node transport.NodeID) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.subs[node]
	if !ok || s.Active {
		return 0
	}
	after := s.acked
	if after < o.floor {
		after = o.floor
	}
	head := o.floor + uint64(o.buf.len())
	if head <= after {
		return 0
	}
	return int(head - after)
}

// ActivateSkipReplay activates the subscription for node WITHOUT replaying
// retained elements: the subscriber's positions jump to the retention
// head, the skipped elements are counted as assumed-lost, and an empty
// covered-watermark message advances the consumer's dedup floor past them
// so subsequent publishes arrive gap-free. This is the approx policy's
// budgeted failover path; the returned count is the loss it admitted.
func (o *Output) ActivateSkipReplay(node transport.NodeID) int {
	o.mu.Lock()
	s, ok := o.subs[node]
	if !ok {
		o.mu.Unlock()
		return 0
	}
	wasActive := s.Active
	s.Active = true
	o.rebuildActiveLocked()
	if wasActive {
		o.mu.Unlock()
		return 0
	}
	head := o.floor + uint64(o.buf.len())
	after := s.acked
	if after < o.floor {
		after = o.floor
	}
	skipped := 0
	if head > after {
		skipped = int(head - after)
	}
	if s.acked < head {
		s.acked = head
	}
	o.assumedLost += uint64(skipped)
	o.skippedReplays++
	// The watermark send holds sendMu like a replay would: a Publish that
	// picks up the now-active subscription is ordered after it, so its
	// elements land on a dedup floor already raised to head.
	s.sendMu.Lock()
	if s.sent < head {
		s.sent = head
	}
	if head > 0 {
		o.send(s.Node, transport.Message{
			Kind:   transport.KindData,
			Stream: s.Stream,
			Seq:    head,
		})
	}
	s.sendMu.Unlock()
	trimmed := o.trimLocked()
	onTrim := o.onTrim
	o.mu.Unlock()
	if trimmed > 0 && onTrim != nil {
		onTrim()
	}
	return skipped
}

// replayLocked retransmits retained elements to s. The caller holds o.mu;
// replayLocked additionally takes s.sendMu so the replay is ordered
// against any in-flight publish fan-out to the same subscriber.
//
// Normally replay resumes after max(acked, floor, sent): everything below
// the send watermark has already been put on the wire by a publish or an
// earlier replay, so resending it would only duplicate. With force set
// (RetransmitAll, the in-flight-loss recovery path) the watermark is
// ignored and everything unacknowledged is resent, since the point there
// is precisely that earlier sends may have been lost. The batch is copied
// out of the ring: retained slots are overwritten in place as the ring
// wraps, so in-flight messages must not alias them.
func (o *Output) replayLocked(s *Subscriber, force bool) {
	head := o.floor + uint64(o.buf.len())
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	after := s.acked
	if after < o.floor {
		after = o.floor
	}
	if !force && after < s.sent {
		after = s.sent
	}
	if s.sent < after {
		s.sent = after
	}
	if after >= head {
		return
	}
	batch := o.buf.slice(int(after - o.floor))
	s.sent = head
	covered := uint64(0)
	if s.part >= 0 {
		covered = head
		if o.router != nil {
			batch = filterPart(batch, o.router, s.part)
		}
		if len(batch) == 0 {
			// Nothing of this subscriber's partitions is retained; the send
			// watermark advanced, and the next non-empty covered send will
			// carry the dedup floor forward.
			return
		}
	}
	o.send(s.Node, transport.Message{
		Kind:     transport.KindData,
		Stream:   s.Stream,
		Seq:      covered,
		Elements: batch,
	})
}

// filterPart copies the elements of batch routed to partition-instance part
// into a fresh slice. The copy is required: filtered sends cannot share the
// published batch across subscribers the way unfiltered fan-out does.
func filterPart(batch []element.Element, router *Partitioner, part int) []element.Element {
	var out []element.Element
	for _, e := range batch {
		if router.Instance(e.Key) == part {
			out = append(out, e)
		}
	}
	return out
}

// Publish appends newly produced elements, assigns their sequence numbers,
// and transmits them to every active subscriber. It returns the elements
// with sequence numbers filled in.
//
// Publish takes ownership of elems (see the package comment): the slice is
// shared as the payload of every outgoing data message, so the caller must
// not mutate or reuse it after the call. Retention uses an internal copy.
//
// A queue has exactly one publisher (the subjob's last PE, or a source's
// emit loop): calls to Publish must not overlap. Sequence numbers are
// assigned under the queue lock but the fan-out runs after it is released,
// and each subscriber's send watermark assumes batches reach it in sequence
// order — a later batch that overtook an earlier one would raise the
// watermark past it and the earlier batch would be skipped as already
// replayed. Publish may run concurrently with every other method.
func (o *Output) Publish(elems []element.Element) []element.Element {
	if len(elems) == 0 {
		return elems
	}
	o.mu.Lock()
	for i := range elems {
		elems[i].Seq = o.nextSeq
		o.nextSeq++
	}
	o.buf.append(elems)
	targets := o.active
	router := o.router
	o.mu.Unlock()

	first := elems[0].Seq
	last := elems[len(elems)-1].Seq
	for _, s := range targets {
		// Holding sendMu across the send orders this fan-out against any
		// concurrent activation replay to the same subscriber; the send
		// watermark then trims whatever prefix such a replay (which runs
		// under the queue lock, hence after the batch was appended) has
		// already transmitted, so no element is delivered twice.
		s.sendMu.Lock()
		if s.sent >= last {
			s.sendMu.Unlock()
			continue
		}
		out := elems
		if s.sent >= first {
			out = elems[s.sent-first+1:]
		}
		covered := uint64(0)
		if s.part >= 0 {
			// Partition-filtered fan-out: send only this instance's elements,
			// stamped with the covered watermark (the last sequence of the
			// whole prefix), so the consumer's dedup floor advances over the
			// elements that went to sibling instances. An all-foreign batch
			// is skipped entirely — the watermark rides the next send.
			covered = last
			if router != nil {
				out = filterPart(out, router, s.part)
			}
			if len(out) == 0 {
				s.sent = last
				s.sendMu.Unlock()
				continue
			}
		}
		s.sent = last
		o.send(s.Node, transport.Message{
			Kind:     transport.KindData,
			Stream:   s.Stream,
			Seq:      covered,
			Elements: out,
		})
		s.sendMu.Unlock()
	}
	return elems
}

// Ack records a cumulative acknowledgment from the downstream copy on node
// and trims every element acknowledged by all active subscribers.
func (o *Output) Ack(node transport.NodeID, seq uint64) {
	o.mu.Lock()
	s, ok := o.subs[node]
	if !ok {
		o.mu.Unlock()
		return
	}
	if seq > s.acked {
		s.acked = seq
	}
	trimmed := o.trimLocked()
	onTrim := o.onTrim
	o.mu.Unlock()
	if trimmed > 0 && onTrim != nil {
		onTrim()
	}
}

// trimLocked removes every element acknowledged by all active subscribers
// and returns how many were removed. Inactive (early-connection) standby
// subscriptions do not hold back trimming: the sweeping protocol guarantees
// their restart point equals the primary's acknowledged position. Trimming
// advances the ring's head — O(1) regardless of how many elements remain
// retained.
func (o *Output) trimLocked() int {
	target := uint64(0)
	first := true
	for _, s := range o.subs {
		if !s.Active {
			continue
		}
		if first || s.acked < target {
			target = s.acked
			first = false
		}
	}
	if first || target <= o.floor {
		return 0
	}
	n := int(target - o.floor)
	if n > o.buf.len() {
		n = o.buf.len()
	}
	o.buf.trim(n)
	o.floor += uint64(n)
	return n
}

// Snapshot captures the queue's retained elements and sequence state for a
// checkpoint. Subscribers are deliberately excluded: connection state is
// re-established by the HA controller on recovery.
func (o *Output) Snapshot() OutputSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	return OutputSnapshot{
		StreamID: o.StreamID,
		Floor:    o.floor,
		NextSeq:  o.nextSeq,
		Buf:      o.buf.slice(0),
	}
}

// Restore overwrites the queue's retained elements and sequence state from
// a snapshot.
func (o *Output) Restore(s OutputSnapshot) error {
	if s.StreamID != o.StreamID {
		return fmt.Errorf("queue: snapshot for stream %q applied to %q", s.StreamID, o.StreamID)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.floor = s.Floor
	o.nextSeq = s.NextSeq
	o.buf.reset(s.Buf)
	for _, sub := range o.subs {
		if sub.acked < o.floor {
			sub.acked = o.floor
		}
		// The send watermark described the replaced queue's transmissions;
		// rewind it to the ack position so the recovery retransmission that
		// follows a restore is not suppressed.
		sub.sendMu.Lock()
		sub.sent = sub.acked
		sub.sendMu.Unlock()
	}
	return nil
}

// FastForward advances the queue's sequence space to next without
// publishing: retained elements are dropped, the trim floor moves to
// next-1, and subscriber positions advance with it. A standby promoted
// from a partial checkpoint uses it so the elements it regenerates from
// replayed input receive the same sequence numbers the failed primary
// assigned — downstream consumers, whose dedup floors already sit at or
// near next-1, then see a contiguous stream. Moving backwards is a no-op.
func (o *Output) FastForward(next uint64) {
	if next == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if next <= o.nextSeq {
		return
	}
	o.buf.trim(o.buf.len())
	o.floor = next - 1
	o.nextSeq = next
	for _, sub := range o.subs {
		if sub.acked < o.floor {
			sub.acked = o.floor
		}
		sub.sendMu.Lock()
		if sub.sent < sub.acked {
			sub.sent = sub.acked
		}
		sub.sendMu.Unlock()
	}
}

// OutputSnapshot is the checkpointable state of an output queue.
type OutputSnapshot struct {
	StreamID string
	Floor    uint64
	NextSeq  uint64
	Buf      []element.Element
}

// OutputDelta is the incremental counterpart of OutputSnapshot: the queue's
// current floor and next-sequence positions plus only the elements
// published since the previous capture. FromSeq is the chain link — the
// NextSeq recorded by that previous capture — so a consumer folding deltas
// can verify contiguity.
type OutputDelta struct {
	StreamID string
	Floor    uint64
	NextSeq  uint64
	FromSeq  uint64
	New      []element.Element
}

// SnapshotSince captures the queue state as a delta against a previous
// capture whose NextSeq was fromSeq: only elements with seq >= fromSeq are
// copied. It returns ok=false when fromSeq is ahead of the queue (the
// queue was restored to an older state since the previous capture), in
// which case the caller must fall back to a full Snapshot.
func (o *Output) SnapshotSince(fromSeq uint64) (OutputDelta, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if fromSeq > o.nextSeq || fromSeq == 0 {
		return OutputDelta{}, false
	}
	d := OutputDelta{
		StreamID: o.StreamID,
		Floor:    o.floor,
		NextSeq:  o.nextSeq,
		FromSeq:  fromSeq,
	}
	start := fromSeq
	if start < o.floor+1 {
		start = o.floor + 1
	}
	if start < o.nextSeq {
		d.New = o.buf.slice(int(start - o.floor - 1))
	}
	return d, true
}

// ApplyDelta folds a delta into a full output-queue snapshot: the retained
// window is trimmed up to the delta's floor and extended with a copy of the
// newly published elements. The survivors slide to the front of Buf's own
// array, so a window of steady size is folded without reallocating; Buf
// must belong to the snapshot. It fails when the delta does not chain onto
// this snapshot (FromSeq mismatch) or would move the queue backwards.
func (s *OutputSnapshot) ApplyDelta(d OutputDelta) error {
	if d.StreamID != s.StreamID {
		return fmt.Errorf("queue: output delta for stream %q applied to %q", d.StreamID, s.StreamID)
	}
	if d.FromSeq != s.NextSeq {
		return fmt.Errorf("queue: output delta chains from seq %d, snapshot is at %d", d.FromSeq, s.NextSeq)
	}
	if d.Floor < s.Floor || d.NextSeq < s.NextSeq {
		return fmt.Errorf("queue: output delta moves stream %q backwards", d.StreamID)
	}
	if n := int(d.Floor - s.Floor); n > 0 {
		n = min(n, len(s.Buf))
		s.Buf = s.Buf[:copy(s.Buf, s.Buf[n:])]
	}
	s.Buf = append(s.Buf, d.New...)
	if want := int(d.NextSeq - 1 - d.Floor); len(s.Buf) != want {
		return fmt.Errorf("queue: output delta fold for %q yields %d retained elements, want %d",
			d.StreamID, len(s.Buf), want)
	}
	s.Floor = d.Floor
	s.NextSeq = d.NextSeq
	return nil
}

// ApplyDelta folds a delta into the live queue, the standby-refresh
// counterpart of Restore: the retained window advances to the delta's
// floor and the newly published elements are appended. The queue takes
// ownership of d.New. Fails when the delta does not chain onto the queue's
// current position.
func (o *Output) ApplyDelta(d OutputDelta) error {
	if d.StreamID != o.StreamID {
		return fmt.Errorf("queue: output delta for stream %q applied to %q", d.StreamID, o.StreamID)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if d.FromSeq != o.nextSeq {
		return fmt.Errorf("queue: output delta chains from seq %d, queue is at %d", d.FromSeq, o.nextSeq)
	}
	if d.Floor < o.floor || d.NextSeq < o.nextSeq {
		return fmt.Errorf("queue: output delta moves stream %q backwards", d.StreamID)
	}
	if n := int(d.Floor - o.floor); n > 0 {
		if n > o.buf.len() {
			n = o.buf.len()
		}
		o.buf.trim(n)
	}
	o.buf.append(d.New)
	o.floor = d.Floor
	o.nextSeq = d.NextSeq
	for _, sub := range o.subs {
		if sub.acked < o.floor {
			sub.acked = o.floor
		}
	}
	return nil
}

// Len returns the number of retained (unacknowledged) elements.
func (o *Output) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.len()
}

// Floor returns the highest trimmed sequence number.
func (o *Output) Floor() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.floor
}

// NextSeq returns the sequence number the next published element will be
// assigned.
func (o *Output) NextSeq() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nextSeq
}

// OutputStats is a JSON-marshalable view of an output queue's retention
// and subscription state, exported through the metrics registry.
type OutputStats struct {
	Stream            string `json:"stream"`
	Retained          int    `json:"retained"`
	Floor             uint64 `json:"floor"`
	NextSeq           uint64 `json:"next_seq"`
	Subscribers       int    `json:"subscribers"`
	ActiveSubscribers int    `json:"active_subscribers"`
	// AssumedLost and SkippedReplays account ActivateSkipReplay's admitted
	// loss (the approx policy's budgeted failovers).
	AssumedLost    uint64 `json:"assumed_lost"`
	SkippedReplays int    `json:"skipped_replays"`
}

// Stats captures the queue's current depth, trim floor and subscription
// counts in one locked read.
func (o *Output) Stats() OutputStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := OutputStats{
		Stream:         o.StreamID,
		Retained:       o.buf.len(),
		Floor:          o.floor,
		NextSeq:        o.nextSeq,
		Subscribers:    len(o.subs),
		AssumedLost:    o.assumedLost,
		SkippedReplays: o.skippedReplays,
	}
	for _, s := range o.subs {
		if s.Active {
			st.ActiveSubscribers++
		}
	}
	return st
}

// AckedBy returns the cumulative ack position of the subscriber on node.
func (o *Output) AckedBy(node transport.NodeID) (uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.subs[node]
	if !ok {
		return 0, false
	}
	return s.acked, true
}

// RetransmitAll resends every retained element each active subscriber has
// not acknowledged, ignoring the per-subscriber send watermark. Recovery
// paths call it after restoring a copy's output queue, covering data that
// may have been lost in flight when its peer failed; downstream
// deduplication absorbs any excess.
func (o *Output) RetransmitAll() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.subs {
		if !s.Active {
			continue
		}
		o.replayLocked(s, true)
	}
}

// Resync force-replays everything node has not acknowledged, reactivating
// its subscription if needed. A consumer that restarted from a durable
// checkpoint requests this from each upstream: elements sent to the dead
// process are past the send watermark but were never delivered, so only a
// forced replay from the acknowledgment floor recovers them. The
// consumer's restored input dedup absorbs the overlap.
func (o *Output) Resync(node transport.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.subs[node]
	if !ok {
		return
	}
	if !s.Active {
		s.Active = true
		o.rebuildActiveLocked()
	}
	o.replayLocked(s, true)
}
