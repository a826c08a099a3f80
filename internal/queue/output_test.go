package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"streamha/internal/element"
	"streamha/internal/transport"
)

// captureSender records sent messages per destination.
type captureSender struct {
	mu   sync.Mutex
	msgs map[transport.NodeID][]transport.Message
}

func newCaptureSender() *captureSender {
	return &captureSender{msgs: make(map[transport.NodeID][]transport.Message)}
}

func (c *captureSender) send(to transport.NodeID, msg transport.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs[to] = append(c.msgs[to], msg)
}

func (c *captureSender) elementsTo(to transport.NodeID) []element.Element {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []element.Element
	for _, m := range c.msgs[to] {
		out = append(out, m.Elements...)
	}
	return out
}

func elems(n int) []element.Element {
	out := make([]element.Element, n)
	for i := range out {
		out[i] = element.Element{ID: uint64(i + 1), Payload: int64(i)}
	}
	return out
}

func TestPublishAssignsIncreasingSeqs(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	out := o.Publish(elems(3))
	for i, e := range out {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, e.Seq)
		}
	}
	out = o.Publish(elems(2))
	if out[0].Seq != 4 || out[1].Seq != 5 {
		t.Fatalf("second batch seqs %d,%d", out[0].Seq, out[1].Seq)
	}
}

func TestPublishSendsToActiveSubscribersOnly(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("a", "in-a", true)
	o.Subscribe("b", "in-b", false)
	o.Publish(elems(4))
	if got := len(s.elementsTo("a")); got != 4 {
		t.Fatalf("active subscriber got %d elements", got)
	}
	if got := len(s.elementsTo("b")); got != 0 {
		t.Fatalf("inactive subscriber got %d elements", got)
	}
}

func TestAckTrimsAtMinOverActiveSubscribers(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("a", "in", true)
	o.Subscribe("b", "in", true)
	o.Publish(elems(10))
	o.Ack("a", 7)
	if o.Len() != 10 {
		t.Fatalf("trimmed before all acked: len %d", o.Len())
	}
	o.Ack("b", 5)
	if o.Len() != 5 || o.Floor() != 5 {
		t.Fatalf("len %d floor %d, want 5/5", o.Len(), o.Floor())
	}
}

func TestInactiveSubscriberDoesNotGateTrimming(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("primary", "in", true)
	o.Subscribe("standby", "in", false) // early connection
	o.Publish(elems(6))
	o.Ack("primary", 6)
	if o.Len() != 0 {
		t.Fatalf("inactive subscriber blocked trim: len %d", o.Len())
	}
}

func TestActivateRetransmitsUnacknowledged(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("primary", "in", true)
	o.Subscribe("standby", "in", false)
	o.Publish(elems(8))
	o.Ack("primary", 5) // floor 5; 3 retained

	o.Activate("standby", true)
	got := s.elementsTo("standby")
	if len(got) != 3 {
		t.Fatalf("standby got %d elements, want 3 retained", len(got))
	}
	if got[0].Seq != 6 || got[2].Seq != 8 {
		t.Fatalf("retransmitted seqs %d..%d, want 6..8", got[0].Seq, got[2].Seq)
	}
}

func TestActivateIsIdempotent(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("standby", "in", false)
	o.Publish(elems(4))
	o.Activate("standby", true)
	first := len(s.elementsTo("standby"))
	o.Activate("standby", true) // already active: no double retransmit
	if got := len(s.elementsTo("standby")); got != first {
		t.Fatalf("second Activate retransmitted: %d -> %d", first, got)
	}
}

func TestDeactivateStopsFlow(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("a", "in", true)
	o.Publish(elems(2))
	o.Activate("a", false)
	o.Publish(elems(2))
	if got := len(s.elementsTo("a")); got != 2 {
		t.Fatalf("deactivated subscriber received %d elements, want 2", got)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("a", "in", true)
	o.Publish(elems(6))
	o.Ack("a", 2)
	snap := o.Snapshot()
	if snap.Floor != 2 || snap.NextSeq != 7 || len(snap.Buf) != 4 {
		t.Fatalf("snapshot %+v", snap)
	}

	o2 := NewOutput("st", s.send)
	if err := o2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if o2.Floor() != 2 || o2.Len() != 4 {
		t.Fatalf("restored floor %d len %d", o2.Floor(), o2.Len())
	}
	// Sequences continue where the snapshot left off.
	out := o2.Publish(elems(1))
	if out[0].Seq != 7 {
		t.Fatalf("post-restore seq %d, want 7", out[0].Seq)
	}
}

func TestRestoreRejectsWrongStream(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	if err := o.Restore(OutputSnapshot{StreamID: "other"}); err == nil {
		t.Fatal("want stream mismatch error")
	}
}

func TestRetransmitAllSkipsAcknowledged(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("a", "in", true)
	o.Subscribe("b", "in", true)
	o.Publish(elems(6))
	o.Ack("a", 6)
	o.Ack("b", 4) // floor 4, retained 5..6
	before := len(s.elementsTo("a"))
	o.RetransmitAll()
	if got := len(s.elementsTo("a")) - before; got != 0 {
		t.Fatalf("fully-acked subscriber got %d retransmits", got)
	}
	if got := s.elementsTo("b"); got[len(got)-1].Seq != 6 || len(got) != 8 {
		t.Fatalf("b got %d msgs, last seq %d", len(got), got[len(got)-1].Seq)
	}
}

func TestAckFromUnknownNodeIgnored(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("a", "in", true)
	o.Publish(elems(3))
	o.Ack("ghost", 3)
	if o.Len() != 3 {
		t.Fatal("ghost ack trimmed")
	}
}

func TestOnTrimFiresOncePerTrim(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	count := 0
	o.SetOnTrim(func() { count++ })
	o.Subscribe("a", "in", true)
	o.Publish(elems(4))
	o.Ack("a", 2)
	o.Ack("a", 2) // no progress: no trim
	o.Ack("a", 4)
	if count != 2 {
		t.Fatalf("onTrim fired %d times, want 2", count)
	}
}

// TestTrimNeverLosesUnackedProperty: for random publish/ack interleavings,
// every element with seq above the minimum acknowledged position remains
// retrievable.
func TestTrimNeverLosesUnackedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newCaptureSender()
		o := NewOutput("st", s.send)
		o.Subscribe("a", "in", true)
		o.Subscribe("b", "in", true)
		var published uint64
		ackA, ackB := uint64(0), uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				o.Publish(elems(int(op%5) + 1))
				published += uint64(op%5) + 1
			case 1:
				if published > 0 {
					ackA = min64(published, ackA+uint64(op%7))
					o.Ack("a", ackA)
				}
			case 2:
				if published > 0 {
					ackB = min64(published, ackB+uint64(op%7))
					o.Ack("b", ackB)
				}
			}
			floor := o.Floor()
			lowest := min64(ackA, ackB)
			if floor > lowest {
				return false // trimmed beyond the slowest consumer
			}
			if uint64(o.Len()) != published-floor {
				return false // retained range must be contiguous to head
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestReplayAfterManyTrimsWrapsRing drives the retained window around the
// ring's physical end many times, then checks that Activate and
// RetransmitAll both replay exactly the retained suffix from a floor far
// above zero.
func TestReplayAfterManyTrimsWrapsRing(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("primary", "in", true)
	o.Subscribe("standby", "in", false)

	// Publish/ack in a lagged pattern so the ring head chases the tail
	// around the buffer: 200 batches of 7, acking 7 with a lag of 3.
	var published uint64
	for i := 0; i < 200; i++ {
		o.Publish(elems(7))
		published += 7
		if published > 21 {
			o.Ack("primary", published-21)
		}
	}
	if o.Floor() != published-21 || o.Len() != 21 {
		t.Fatalf("floor %d len %d, want %d/21", o.Floor(), o.Len(), published-21)
	}

	o.Activate("standby", true)
	got := s.elementsTo("standby")
	if len(got) != 21 {
		t.Fatalf("standby got %d elements, want 21 retained", len(got))
	}
	for i, e := range got {
		if e.Seq != o.Floor()+uint64(i+1) {
			t.Fatalf("replayed seq[%d] = %d, want %d", i, e.Seq, o.Floor()+uint64(i+1))
		}
	}

	// RetransmitAll from a partially acknowledged position above the floor.
	o.Ack("standby", published-10)
	before := len(s.elementsTo("standby"))
	o.RetransmitAll()
	retr := s.elementsTo("standby")[before:]
	if len(retr) != 10 {
		t.Fatalf("retransmitted %d, want 10", len(retr))
	}
	if retr[0].Seq != published-9 || retr[9].Seq != published {
		t.Fatalf("retransmitted seqs %d..%d, want %d..%d", retr[0].Seq, retr[9].Seq, published-9, published)
	}
}

// TestConcurrentPublishAckSubscribe hammers one output queue from its
// publisher, an acker and a subscription-churn goroutine at once. Run under
// -race it checks the lock discipline of the ring buffer and the immutable
// fan-out snapshot; the final invariant checks nothing retained was lost.
// There is one publisher because Publish is single-publisher by contract.
func TestConcurrentPublishAckSubscribe(t *testing.T) {
	s := newCaptureSender()
	o := NewOutput("st", s.send)
	o.Subscribe("a", "in", true)

	const (
		batches  = 800
		batchLen = 5
	)
	var wg sync.WaitGroup
	var published atomic.Uint64

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			o.Publish(elems(batchLen))
			published.Add(batchLen)
		}
	}()
	// Acker: chases the published head so trims run concurrently with
	// publishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			head := published.Load()
			if head > batchLen {
				o.Ack("a", head-batchLen)
			}
		}
	}()
	// Subscription churn: a standby flaps active/inactive and a transient
	// subscriber comes and goes, rebuilding the fan-out snapshot while
	// publishes iterate it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			o.Subscribe("flap", "in", i%2 == 0)
			o.Activate("flap", i%2 == 1)
			if i%5 == 0 {
				o.Unsubscribe("flap")
			}
			o.RetransmitAll()
		}
	}()
	wg.Wait()

	total := published.Load()
	o.Ack("a", total)
	o.Unsubscribe("flap")
	o.Ack("a", total) // re-trim with only "a" active
	if o.Floor() != total || o.Len() != 0 {
		t.Fatalf("floor %d len %d after full ack of %d", o.Floor(), o.Len(), total)
	}
	// Every sequence number must have been delivered to "a" at least once
	// (dedup is downstream's job; loss is not acceptable).
	seen := make(map[uint64]bool, total)
	for _, e := range s.elementsTo("a") {
		seen[e.Seq] = true
	}
	for seq := uint64(1); seq <= total; seq++ {
		if !seen[seq] {
			t.Fatalf("seq %d never delivered to active subscriber", seq)
		}
	}
}
