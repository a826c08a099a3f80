package checkpoint

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

func TestCostsDisabled(t *testing.T) {
	c := Costs{Disabled: true}.orDefault()
	if !c.Disabled {
		t.Fatal("Disabled lost through orDefault")
	}
	if got := c.work(1000); got != 0 {
		t.Fatalf("disabled cost model charges %v", got)
	}
	// Sanity: the implicit default is a real cost model, not disabled.
	if DefaultCosts.Disabled || DefaultCosts.work(1) == 0 {
		t.Fatal("DefaultCosts must model real work")
	}
}

// waitOutLen waits for the runtime's output queue to reach n elements, so
// a following capture sees a settled, deterministic queue.
func waitOutLen(t *testing.T, rt *subjob.Runtime, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Out().Len() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("output holds %d elements, want %d", rt.Out().Len(), n)
}

// TestIncrementalRestoreEquivalence is the cross-variant regression for
// the incremental protocol: for each checkpoint variant, a store fed a
// full snapshot plus N deltas must hold the byte-identical image a store
// fed only full snapshots holds after the same workload.
func TestIncrementalRestoreEquivalence(t *testing.T) {
	variants := map[string]func(Config) *Core{
		"sweeping":    func(cfg Config) *Core { return NewSweeping(cfg) },
		"synchronous": func(cfg Config) *Core { return NewSynchronous(cfg) },
		"individual":  func(cfg Config) *Core { return NewIndividual(cfg) },
	}
	const rounds = 6
	run := func(t *testing.T, mk func(Config) *Core, rebase int) ([]byte, StoreStats) {
		r := newRig(t, InMemory)
		cm := mk(Config{
			Runtime:     r.rt,
			Clock:       r.clk,
			Interval:    time.Hour,
			StoreNode:   r.secM.ID(),
			Costs:       Costs{Disabled: true},
			RebaseEvery: rebase,
		})
		cm.Start()
		defer cm.Stop()
		next := uint64(1)
		for i := 0; i < rounds; i++ {
			r.feed(t, next, next+19)
			next += 20
			waitOutLen(t, r.rt, int(next-1))
			cm.CheckpointNow()
			r.expectAck(t, next-1)
		}
		snap, ok := r.store.Latest()
		if !ok {
			t.Fatal("store holds nothing")
		}
		if snap.Consumed["in"] != next-1 {
			t.Fatalf("stored image consumed %v, want %d", snap.Consumed, next-1)
		}
		enc, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc, r.store.Stats()
	}
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			full, fullStats := run(t, mk, 0)
			inc, incStats := run(t, mk, 4)
			if fullStats.DeltaFolds != 0 {
				t.Fatalf("full-only run folded %d deltas", fullStats.DeltaFolds)
			}
			if incStats.DeltaFolds == 0 {
				t.Fatalf("incremental run folded no deltas: %+v", incStats)
			}
			if incStats.DeltaDrops != 0 {
				t.Fatalf("incremental run dropped %d deltas", incStats.DeltaDrops)
			}
			if !bytes.Equal(full, inc) {
				t.Fatalf("%s: full-only image (%d B) != folded full+delta image (%d B)",
					name, len(full), len(inc))
			}
		})
	}
}

// storeHarness drives a Store directly with hand-built checkpoint
// messages, bypassing the manager.
type storeHarness struct {
	store *Store
	pri   *machine.Machine
	sec   *machine.Machine
	acks  chan uint64
}

func newStoreHarness(t *testing.T) *storeHarness {
	t.Helper()
	return newStoreHarnessWith(t, StoreOptions{})
}

func newStoreHarnessWith(t *testing.T, opts StoreOptions) *storeHarness {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	pri, err := machine.New("pri", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := machine.New("sec", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	h := &storeHarness{pri: pri, sec: sec, acks: make(chan uint64, 64)}
	h.store = NewStore(sec, "j/sj", &Image{}, opts)
	t.Cleanup(h.store.Close)
	pri.RegisterStream(subjob.CkptAckStream("j/sj"), func(_ transport.NodeID, msg transport.Message) {
		h.acks <- msg.Seq
	})
	return h
}

func (h *storeHarness) send(t *testing.T, seq uint64, state []byte) {
	t.Helper()
	h.pri.Send(h.sec.ID(), transport.Message{
		Kind:   transport.KindCheckpoint,
		Stream: subjob.CkptStream("j/sj"),
		Seq:    seq,
		State:  state,
	})
}

func (h *storeHarness) expectAck(t *testing.T, want uint64) {
	t.Helper()
	select {
	case seq := <-h.acks:
		if seq != want {
			t.Fatalf("ack %d, want %d", seq, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("no ack for checkpoint %d", want)
	}
}

func (h *storeHarness) expectNoAck(t *testing.T) {
	t.Helper()
	select {
	case seq := <-h.acks:
		t.Fatalf("unexpected ack %d", seq)
	case <-time.After(50 * time.Millisecond):
	}
}

func encFull(t *testing.T, consumed uint64, state []byte) []byte {
	t.Helper()
	snap := &subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": consumed},
		PEStates: [][]byte{append([]byte(nil), state...)},
		Output:   queue.OutputSnapshot{StreamID: "out", NextSeq: 1},
	}
	b, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encDelta(t *testing.T, prevSeq, consumed uint64, stateLen, off int, patch []byte) []byte {
	t.Helper()
	p := pe.AppendPatchHeader(nil, stateLen, 1)
	p = pe.AppendPatchChunk(p, off, patch)
	d := &subjob.Delta{
		SubjobID: "j/sj",
		PrevSeq:  prevSeq,
		Consumed: map[string]uint64{"in": consumed},
		PEDeltas: [][]byte{p},
		PEFull:   [][]byte{nil},
	}
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreFoldsDeltasAndDropsBrokenChains exercises the store's chain
// protocol directly: in-order deltas fold and ack; deltas with a sequence
// gap are dropped WITHOUT acking (an ack would let upstream trim data the
// store cannot actually restore); a later full snapshot re-bases.
func TestStoreFoldsDeltasAndDropsBrokenChains(t *testing.T) {
	h := newStoreHarness(t)
	base := make([]byte, 16)
	for i := range base {
		base[i] = byte(i)
	}

	h.send(t, 1, encFull(t, 10, base))
	h.expectAck(t, 1)

	// Chain is at 1; a delta claiming PrevSeq 2 does not fold.
	h.send(t, 3, encDelta(t, 2, 30, 16, 0, []byte{0xEE}))
	h.expectNoAck(t)
	if st := h.store.Stats(); st.DeltaDrops != 1 || st.DeltaFolds != 0 {
		t.Fatalf("after gap delta: %+v", st)
	}
	if snap, _ := h.store.Latest(); snap.Consumed["in"] != 10 {
		t.Fatalf("gap delta mutated the image: %+v", snap.Consumed)
	}

	// The chaining delta folds, acks, and patches the PE state.
	h.send(t, 2, encDelta(t, 1, 20, 16, 4, []byte{0xAA, 0xBB}))
	h.expectAck(t, 2)
	snap, _ := h.store.Latest()
	if snap.Consumed["in"] != 20 {
		t.Fatalf("folded consumed %v", snap.Consumed)
	}
	want := append([]byte(nil), base...)
	want[4], want[5] = 0xAA, 0xBB
	if !bytes.Equal(snap.PEStates[0], want) {
		t.Fatalf("folded state %v, want %v", snap.PEStates[0], want)
	}

	// Latest() hands out a copy: mutating it must not corrupt the image.
	snap.PEStates[0][0] = 0xFF
	if again, _ := h.store.Latest(); again.PEStates[0][0] == 0xFF {
		t.Fatal("Latest() exposed the store's internal image")
	}

	// Still no fold for a delta chaining onto the dropped seq 3.
	h.send(t, 4, encDelta(t, 3, 40, 16, 0, []byte{0x01}))
	h.expectNoAck(t)

	// A fresh full re-bases past the broken chain.
	h.send(t, 5, encFull(t, 50, want))
	h.expectAck(t, 5)
	st := h.store.Stats()
	if st.Fulls != 2 || st.DeltaFolds != 1 || st.DeltaDrops != 2 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestStoreDropsOutOfOrderDelta: the store folds one checkpoint at a time
// in arrival order, so a delta that arrives before its predecessor does
// not extend the chain — it is dropped without an acknowledgment and
// reported as a chain break — and the next full re-bases. Acks travel in
// fold order, so an ack for a later checkpoint proves none came for the
// dropped one.
func TestStoreDropsOutOfOrderDelta(t *testing.T) {
	h := newStoreHarness(t)
	breaks := make(chan struct{}, 4)
	h.store.SetOnChainBreak(func() { breaks <- struct{}{} })
	expectBreak := func() {
		t.Helper()
		select {
		case <-breaks:
		case <-time.After(2 * time.Second):
			t.Fatal("no chain break reported")
		}
	}
	base := make([]byte, 8)

	h.send(t, 1, encFull(t, 1, base))
	h.expectAck(t, 1)
	h.send(t, 3, encDelta(t, 2, 3, 8, 0, []byte{0x33})) // ahead of 2
	h.send(t, 2, encFull(t, 2, base))
	expectBreak()
	h.expectAck(t, 2)
	if snap, _ := h.store.Latest(); snap.Consumed["in"] != 2 || snap.PEStates[0][0] != 0 {
		t.Fatalf("image after the re-base: consumed %v, state %v", snap.Consumed, snap.PEStates[0])
	}

	// 3 was never folded, so a delta on it is dropped too; 5 re-bases again.
	h.send(t, 4, encDelta(t, 3, 4, 8, 1, []byte{0x44}))
	h.send(t, 5, encFull(t, 5, base))
	expectBreak()
	h.expectAck(t, 5)
	h.send(t, 6, encDelta(t, 5, 6, 8, 1, []byte{0x66}))
	h.expectAck(t, 6)

	snap, _ := h.store.Latest()
	if snap.Consumed["in"] != 6 || snap.PEStates[0][0] != 0 || snap.PEStates[0][1] != 0x66 {
		t.Fatalf("final image: consumed %v, state %v", snap.Consumed, snap.PEStates[0])
	}
	if st := h.store.Stats(); st.Fulls != 3 || st.DeltaFolds != 1 || st.DeltaDrops != 2 || st.Stored != 4 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestStoreConcurrentAccess hammers the store from a writer and two
// readers; run with -race.
func TestStoreConcurrentAccess(t *testing.T) {
	h := newStoreHarness(t)
	const n = 100
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		state := make([]byte, 32)
		for i := 0; i < n; i++ {
			seq := uint64(i)*2 + 1
			h.send(t, seq, encFull(t, seq, state))
			h.send(t, seq+1, encDelta(t, seq, seq+1, 32, i%32, []byte{byte(i)}))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap, ok := h.store.Latest(); ok && snap.SubjobID != "j/sj" {
					panic("corrupt snapshot")
				}
				_ = h.store.Stats()
				_ = h.store.Stored()
			}
		}()
	}

	deadline := time.After(5 * time.Second)
	acked := 0
	for acked < 2*n {
		select {
		case <-h.acks:
			acked++
		case <-deadline:
			t.Fatalf("only %d/%d acks", acked, 2*n)
		}
	}
	close(stop)
	wg.Wait()
	st := h.store.Stats()
	if st.DeltaDrops != 0 {
		t.Fatalf("in-order chain dropped %d deltas: %+v", st.DeltaDrops, st)
	}
}
