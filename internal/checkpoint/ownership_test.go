package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

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
		MaxInFlight: 2, Costs: Costs{Base: 2 * time.Millisecond}})
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
// checkpoint allocates its encoded payload once — the capture fills a
// recycled buffer, the shipper hands its encode buffer off as the message,
// the store decodes by aliasing. Three copies (the parent of this test)
// would read about 3x. TotalAlloc counts the whole process, so whatever
// goroutines left over from earlier tests allocate in an idle window of the
// same length, polled the same way, is subtracted.
func TestFullCheckpointAllocationBudget(t *testing.T) {
	const sj = "j/budget"
	r, rt := bigStateRig(t, sj, 4096) // 160 kB of pad
	store := NewStore(r.secM, sj, &Image{}, StoreOptions{})
	t.Cleanup(store.Close)
	cm := NewSweeping(Config{Runtime: rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID(),
		Costs: Costs{Disabled: true}})
	defer cm.Stop()
	r.feedRuntime(t, rt, 1, 64)

	taken := 0
	checkpoint := func() {
		cm.CheckpointNow()
		taken++
		waitUntil(t, "the store has folded the checkpoint", func() bool { return store.Stored() >= taken })
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
	if perCheckpoint >= 1.25*encoded {
		t.Fatalf("one full checkpoint allocated %.0f B, %.2fx its encoded size of %.0f B; budget is 1.25x",
			perCheckpoint, perCheckpoint/encoded, encoded)
	}
}
