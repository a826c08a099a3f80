package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// TestStoreFoldPersistsPristineFull: the image keeps the decoded full,
// which aliases the payload the store handed to the catalog, and folds the
// next delta into it. The fold must therefore not write through it: the
// payload stays as sent, the cataloged full restores to its pre-fold
// state, the delta on top of it to the folded one.
func TestStoreFoldPersistsPristineFull(t *testing.T) {
	cat := NewCatalog(NewMemBackend(), Retention{})
	h := newStoreHarnessWith(t, StoreOptions{Catalog: cat})

	base := make([]byte, 16)
	for i := range base {
		base[i] = byte(i)
	}
	full := encFull(t, 10, base)
	sent := append([]byte(nil), full...)
	h.store.Close() // fold directly, one message after the other
	h.store.Fold(h.pri.ID(), transport.Message{Seq: 1, State: full})
	h.store.Fold(h.pri.ID(), transport.Message{Seq: 2, State: encDelta(t, 1, 20, 16, 4, []byte{0xAA, 0xBB})})
	h.expectAck(t, 1)
	h.expectAck(t, 2)

	if !bytes.Equal(full, sent) {
		t.Fatal("the fold wrote into the full checkpoint's payload")
	}
	folded := append([]byte(nil), base...)
	folded[4], folded[5] = 0xAA, 0xBB
	for seq, want := range map[uint64][]byte{1: base, 2: folded} {
		snap, _, err := cat.Restore("j/sj", seq)
		if err != nil {
			t.Fatalf("restore at %d: %v", seq, err)
		}
		if !bytes.Equal(snap.PEStates[0], want) {
			t.Fatalf("catalog restore at %d: state %x, want %x", seq, snap.PEStates[0], want)
		}
	}
	if snap, _ := h.store.Latest(); !bytes.Equal(snap.PEStates[0], folded) {
		t.Fatalf("in-memory image %x, want %x", snap.PEStates[0], folded)
	}
}

// bigStateRig is newRig with a PE state large enough that a checkpoint's
// fixed costs vanish next to it.
func bigStateRig(t *testing.T, sjID string, pad int) (*rig, *subjob.Runtime) {
	t.Helper()
	r := newRig(t, InMemory)
	spec := r.rt.Spec()
	spec.ID = sjID
	spec.PEs = []subjob.PESpec{
		{Name: "a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: pad, HotSlots: 64} }},
	}
	rt, err := subjob.New(spec, r.priM, false)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return r, rt
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestNoCaptureBufferReuseInFlight: capture buffers are recycled only after
// their snapshot is encoded, and an encoded payload is never recycled at
// all. With the store node held back — its handler blocked, so every
// shipped payload sits in the transport by reference — and the shipper
// slower than the captures (2 ms of modeled cost each, at most two queued),
// each payload must still decode to the counter value at ITS capture. Run
// under -race it also checks the hand-back from the shipper goroutine to
// the capturing one.
func TestNoCaptureBufferReuseInFlight(t *testing.T) {
	const sj = "j/inflight"
	r, rt := bigStateRig(t, sj, 64)

	release := make(chan struct{})
	var mu sync.Mutex
	got := make(map[uint64][]byte)
	r.secM.RegisterStream(subjob.CkptStream(sj), func(_ transport.NodeID, msg transport.Message) {
		<-release
		mu.Lock()
		got[msg.Seq] = msg.State
		mu.Unlock()
	})

	cm := NewSweeping(Config{Runtime: rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID(),
		Costs: Costs{Base: 2 * time.Millisecond}})
	defer cm.Stop()
	const n = 8
	countAt := make(map[uint64]uint64, n)
	for k := uint64(1); k <= n; k++ {
		r.feedRuntime(t, rt, (k-1)*5+1, k*5)
		cm.CheckpointNow()
		countAt[k] = k * 5
	}
	waitUntil(t, "the shipper has sent every checkpoint", func() bool { return cm.Stats().Fulls >= n })
	close(release)
	waitUntil(t, "the store node has received every checkpoint", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})

	mu.Lock()
	defer mu.Unlock()
	for seq, want := range countAt {
		snap, err := subjob.DecodeSnapshot(got[seq])
		if err != nil {
			t.Fatalf("checkpoint %d: %v", seq, err)
		}
		if count := binary.BigEndian.Uint64(snap.PEStates[0][:8]); count != want {
			t.Fatalf("checkpoint %d decodes to count %d, captured at %d", seq, count, want)
		}
		if snap.Consumed["in"] != want {
			t.Fatalf("checkpoint %d covers position %d, captured at %d", seq, snap.Consumed["in"], want)
		}
	}
}

// TestFullCheckpointAllocationBudget: between capture and fold a full
// checkpoint allocates none of its state — the capture fills a recycled
// buffer, the shipper encodes into the payload the store's acknowledgment
// of an earlier checkpoint handed back, and the image copies the PE state
// into the buffer it held. What is left is the decode's small values; a
// fresh payload per checkpoint reads about 1.07x the encoded size.
// TotalAlloc counts the whole process, so whatever
// goroutines left over from earlier tests allocate in an idle window of the
// same length, polled the same way, is subtracted.
func TestFullCheckpointAllocationBudget(t *testing.T) {
	const sj = "j/budget"
	r, rt := bigStateRig(t, sj, 4096) // 160 kB of pad
	store := NewStore(r.secM, sj, &Image{}, StoreOptions{})
	t.Cleanup(store.Close)
	cm := NewSweeping(Config{Runtime: rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID(),
		Costs: Costs{Disabled: true}})
	cm.Start() // the store-ack handler hands payloads back
	defer cm.Stop()
	r.feedRuntime(t, rt, 1, 64)

	taken := 0
	checkpoint := func() {
		cm.CheckpointNow()
		taken++
		// Until the manager has heard the acknowledgment, the payload is
		// not back: the next encode would find no buffer and add one.
		waitUntil(t, "the manager has heard the store's acknowledgment", func() bool {
			return store.Stored() >= taken && cm.Stats().Pending == 0
		})
	}
	for i := 0; i < 5; i++ { // steady state: spare buffers exist, queues are sized
		checkpoint()
	}

	const rounds = 50
	var before, after, idle runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		checkpoint()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	idleEnd := time.Now().Add(elapsed)
	waitUntil(t, "the idle window has passed", func() bool { return time.Now().After(idleEnd) })
	runtime.ReadMemStats(&idle)

	st := cm.Stats()
	encoded := float64(st.BytesFull) / float64(st.Fulls)
	allocated := after.TotalAlloc - before.TotalAlloc
	if background := idle.TotalAlloc - after.TotalAlloc; background < allocated {
		allocated -= background
	}
	perCheckpoint := float64(allocated) / rounds
	t.Logf("one full checkpoint allocates %.0f B, %.2fx its encoded size of %.0f B", perCheckpoint, perCheckpoint/encoded, encoded)
	if perCheckpoint >= 0.15*encoded {
		t.Fatalf("one full checkpoint allocated %.0f B, %.2fx its encoded size of %.0f B; budget is 0.15x",
			perCheckpoint, perCheckpoint/encoded, encoded)
	}
}

// TestAckedPayloadReuseUnderSlowFold: a payload goes back to the shipper
// only once the store has acknowledged it. The store folds slowly, so
// shipped payloads queue in front of it while its acknowledgments race
// with new captures (at most two queued on the shipper); each payload
// must still decode, when its fold starts, to the counter value at ITS
// capture. Run under -race it also checks the hand-back from the store's
// acknowledgment to the shipper's next encode.
func TestAckedPayloadReuseUnderSlowFold(t *testing.T) {
	const sj = "j/slowfold"
	r, rt := bigStateRig(t, sj, 64)
	store := NewStore(r.secM, sj, &Image{}, StoreOptions{})
	// Fold on the machine's dispatch goroutine instead of the store's own:
	// Fold may be called directly on a closed store.
	store.Close()
	var mu sync.Mutex
	countAt := make(map[uint64]uint64)
	var bad []string
	arrays := make(map[*byte]bool) // keeps every payload array alive, so an address seen twice was reused
	r.secM.RegisterStream(subjob.CkptStream(sj), func(from transport.NodeID, msg transport.Message) {
		time.Sleep(time.Millisecond)
		snap, err := subjob.DecodeSnapshot(msg.State)
		mu.Lock()
		arrays[&msg.State[0]] = true
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("checkpoint %d: %v", msg.Seq, err))
		case binary.BigEndian.Uint64(snap.PEStates[0][:8]) != countAt[msg.Seq] || snap.Consumed["in"] != countAt[msg.Seq]:
			bad = append(bad, fmt.Sprintf("checkpoint %d decodes to count %d at position %d, captured at %d",
				msg.Seq, binary.BigEndian.Uint64(snap.PEStates[0][:8]), snap.Consumed["in"], countAt[msg.Seq]))
		}
		mu.Unlock()
		store.Fold(from, msg)
	})
	t.Cleanup(func() { r.secM.UnregisterStream(subjob.CkptStream(sj)) })

	cm := NewSweeping(Config{Runtime: rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID(),
		Costs: Costs{Disabled: true}})
	cm.Start()
	defer cm.Stop()
	const n = 40
	for k := uint64(1); k <= n; k++ {
		r.feedRuntime(t, rt, (k-1)*5+1, k*5)
		mu.Lock()
		countAt[k] = k * 5
		mu.Unlock()
		cm.CheckpointNow()
	}
	waitUntil(t, "the store has acknowledged every checkpoint", func() bool { return store.Stored() == n })
	mu.Lock()
	defer mu.Unlock()
	for _, b := range bad {
		t.Error(b)
	}
	if len(arrays) == n {
		t.Fatalf("all %d payloads were fresh buffers: no acknowledged payload was reused", n)
	}
	t.Logf("%d checkpoints shipped in %d payload buffers", n, len(arrays))
}

// TestStrayStoreAckReleasesNothing: only the manager's own store node may
// confirm a checkpoint. A ckpt-stored from any other node — here the
// upstream machine, naming the newest checkpoint — releases no upstream
// acknowledgment; the store's own confirmation of the older one then
// releases exactly its positions.
func TestStrayStoreAckReleasesNothing(t *testing.T) {
	r := newRig(t, InMemory)
	r.store.Close() // the test confirms checkpoints itself
	cm := NewSweeping(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()

	r.feed(t, 1, 5)
	cm.CheckpointNow() // seq 1 covers 5
	r.feed(t, 6, 10)
	cm.CheckpointNow() // seq 2 covers 10
	confirm := func(m *machine.Machine, seq uint64) {
		m.Send(r.priM.ID(), transport.Message{
			Kind:    transport.KindControl,
			Stream:  subjob.CkptAckStream("j/sj"),
			Command: "ckpt-stored",
			Seq:     seq,
		})
	}
	confirm(r.upM, 2)
	confirm(r.secM, 1)
	r.expectAck(t, 5)
	if p := cm.Stats().Pending; p != 1 {
		t.Fatalf("%d checkpoints pending after the store confirmed seq 1, want 1 (seq 2)", p)
	}
	select {
	case seq := <-r.acks:
		t.Fatalf("upstream acknowledged %d on a stray confirmation", seq)
	case <-time.After(20 * time.Millisecond):
	}
}

// sumLogic is a logic without delta support: every delta checkpoint
// carries its state whole, as a PEFull entry.
type sumLogic struct{ n uint64 }

func (l *sumLogic) Process(e element.Element, emit func(element.Element)) { l.n++; emit(e) }
func (l *sumLogic) Snapshot() []byte                                      { return binary.BigEndian.AppendUint64(nil, l.n) }
func (l *sumLogic) StateSize() int                                        { return 1 }
func (l *sumLogic) Restore(b []byte) error {
	l.n = 0
	if len(b) == 8 {
		l.n = binary.BigEndian.Uint64(b)
	}
	return nil
}

// TestImageKeepsNothingOfAPayload: an image copies what it keeps (DESIGN
// §11, rule 3), because a payload goes back to its sender once the store
// acknowledges it. After the last folded checkpoint — a full, or a delta
// carrying one PE's state whole — the store stops listening, and the next
// checkpoint is encoded into a handed-back payload and never folded. The
// image must still hold the state of the last checkpoint it folded.
func TestImageKeepsNothingOfAPayload(t *testing.T) {
	for _, tc := range []struct {
		name   string
		folded int // checkpoints folded before the store stops listening
	}{
		{"full", 1},
		{"delta", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, InMemory)
			spec := r.rt.Spec()
			spec.ID = "j/image"
			spec.PEs = []subjob.PESpec{
				{Name: "a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 64, HotSlots: 4} }},
				{Name: "b", NewLogic: func() pe.Logic { return &sumLogic{} }},
			}
			rt, err := subjob.New(spec, r.priM, false)
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			t.Cleanup(rt.Stop)
			store := NewStore(r.secM, spec.ID, &Image{}, StoreOptions{})
			t.Cleanup(store.Close)
			cm := NewSweeping(Config{Runtime: rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID(),
				RebaseEvery: 8, Costs: Costs{Disabled: true}})
			cm.Start()
			defer cm.Stop()

			checkpoint := func(k int) {
				r.feedRuntime(t, rt, uint64(k-1)*5+1, uint64(k)*5)
				waitOutLen(t, rt, k*5)
				cm.CheckpointNow()
			}
			for k := 1; k <= tc.folded; k++ {
				checkpoint(k)
				waitUntil(t, "the store has folded the checkpoint", func() bool { return store.Stored() >= k })
			}
			store.Close()
			checkpoint(tc.folded + 1)
			waitUntil(t, "the shipper has sent the unfolded checkpoint", func() bool {
				st := cm.Stats()
				return st.Fulls+st.Deltas > tc.folded
			})

			snap, ok := store.Latest()
			if !ok {
				t.Fatal("the image holds nothing")
			}
			want := uint64(tc.folded) * 5
			var a pe.CounterLogic
			var b sumLogic
			if err := a.Restore(snap.PEStates[0]); err != nil {
				t.Fatal(err)
			}
			b.Restore(snap.PEStates[1])
			if a.Count() != want || b.n != want {
				t.Fatalf("image holds counts %d and %d, folded at %d", a.Count(), b.n, want)
			}
		})
	}
}
