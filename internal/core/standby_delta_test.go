package core

import (
	"testing"
	"time"

	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// deltaHarness adds raw checkpoint sends and a single ack listener on top
// of standbyRig, for driving the incremental protocol by hand.
type deltaHarness struct {
	*standbyRig
	acks chan uint64
	base []byte // fresh CounterLogic{Pad:1} state, the full-snapshot payload
}

func newDeltaHarness(t *testing.T) *deltaHarness {
	t.Helper()
	r := newStandbyRig(t)
	h := &deltaHarness{
		standbyRig: r,
		acks:       make(chan uint64, 8),
		base:       (&pe.CounterLogic{Pad: 1}).Snapshot(),
	}
	r.priM.RegisterStream(subjob.CkptAckStream("j/sj"), func(_ transport.NodeID, msg transport.Message) {
		h.acks <- msg.Seq
	})
	return h
}

func (h *deltaHarness) send(t *testing.T, seq uint64, state []byte) {
	t.Helper()
	h.priM.Send(h.secM.ID(), transport.Message{
		Kind:   transport.KindCheckpoint,
		Stream: subjob.CkptStream("j/sj"),
		Seq:    seq,
		State:  state,
	})
}

func (h *deltaHarness) sendFull(t *testing.T, seq, consumed uint64) {
	t.Helper()
	snap := &subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": consumed},
		PEStates: [][]byte{append([]byte(nil), h.base...)},
		Output:   h.sec.Out().Snapshot(),
	}
	state, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h.send(t, seq, state)
}

// sendDelta ships a delta chaining onto prevSeq that patches the last pad
// byte of the PE state to mark.
func (h *deltaHarness) sendDelta(t *testing.T, seq, prevSeq, consumed uint64, mark byte) {
	t.Helper()
	p := pe.AppendPatchHeader(nil, len(h.base), 1)
	p = pe.AppendPatchChunk(p, len(h.base)-1, []byte{mark})
	d := &subjob.Delta{
		SubjobID: "j/sj",
		PrevSeq:  prevSeq,
		Consumed: map[string]uint64{"in": consumed},
		PEDeltas: [][]byte{p},
		PEFull:   [][]byte{nil},
	}
	state, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h.send(t, seq, state)
}

func (h *deltaHarness) expectNoAck(t *testing.T) {
	t.Helper()
	select {
	case seq := <-h.acks:
		t.Fatalf("unexpected ack %d", seq)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestStandbyStoreFoldsDeltaChain(t *testing.T) {
	h := newDeltaHarness(t)
	store := newStandbyStore(h.sec)
	defer store.Close()

	h.sendFull(t, 1, 42)
	expectAck(t, h.acks, 1)

	h.sendDelta(t, 2, 1, 50, 0xAB)
	expectAck(t, h.acks, 2)
	if store.Applied() != 2 || store.DeltaDrops() != 0 {
		t.Fatalf("applied=%d drops=%d", store.Applied(), store.DeltaDrops())
	}
	if got := h.sec.ConsumedPositions()["in"]; got != 50 {
		t.Fatalf("standby position %d, want 50 (delta refresh)", got)
	}
	st := h.sec.Snapshot().PEStates[0]
	if st[len(st)-1] != 0xAB {
		t.Fatalf("patched pad byte = %#x, want 0xAB", st[len(st)-1])
	}

	// Replaying the delta no longer chains (chain is at 2): dropped, and
	// critically NOT acknowledged — upstream must keep that data.
	h.sendDelta(t, 2, 1, 50, 0xCD)
	h.expectNoAck(t)
	if store.DeltaDrops() != 1 {
		t.Fatalf("drops=%d, want 1", store.DeltaDrops())
	}
	if got := h.sec.Snapshot().PEStates[0]; got[len(got)-1] != 0xAB {
		t.Fatal("dropped delta mutated the standby")
	}
}

func TestStandbyStoreActivePeriodBreaksChain(t *testing.T) {
	h := newDeltaHarness(t)
	store := newStandbyStore(h.sec)
	defer store.Close()

	h.sendFull(t, 1, 10)
	expectAck(t, h.acks, 1)

	h.sec.Resume() // transient-failure takeover: live state supersedes

	// A chaining delta while active: not applied and not acknowledged —
	// the live state diverges from the checkpoint chain immediately.
	h.sendDelta(t, 2, 1, 20, 0x01)
	h.expectNoAck(t)
	deadline := time.Now().Add(time.Second)
	for store.Stats().Skipped == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if store.Stats().Skipped != 1 {
		t.Fatalf("skipped=%d, want 1", store.Stats().Skipped)
	}

	// The chain is now broken: even a delta chaining onto seq 2 is dropped.
	h.sendDelta(t, 3, 2, 30, 0x02)
	h.expectNoAck(t)
	if store.DeltaDrops() != 1 {
		t.Fatalf("drops=%d, want 1", store.DeltaDrops())
	}

	// Fulls while active stay acknowledged (trims proceed) but unapplied.
	h.sendFull(t, 4, 40)
	expectAck(t, h.acks, 4)
	if store.Applied() != 1 {
		t.Fatalf("applied=%d, want 1 (only the initial full)", store.Applied())
	}

	// Back to passive: the next full re-bases and deltas fold again.
	h.sec.Suspend()
	h.sendFull(t, 5, 50)
	expectAck(t, h.acks, 5)
	h.sendDelta(t, 6, 5, 60, 0xEE)
	expectAck(t, h.acks, 6)
	if store.Applied() != 3 {
		t.Fatalf("applied=%d, want 3", store.Applied())
	}
	if got := h.sec.ConsumedPositions()["in"]; got != 60 {
		t.Fatalf("standby position %d, want 60", got)
	}
}
