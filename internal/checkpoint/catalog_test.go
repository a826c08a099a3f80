package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamha/internal/element"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// ckptSnap builds a one-PE full snapshot whose PE state and consumed
// position identify the checkpoint it stands for.
func ckptSnap(sj string, consumed uint64, state string) *subjob.Snapshot {
	return &subjob.Snapshot{
		SubjobID:   sj,
		Consumed:   map[string]uint64{"in": consumed},
		PEStates:   [][]byte{[]byte(state)},
		Pipes:      [][]element.Element{},
		StateUnits: 1,
	}
}

// ckptDelta builds a delta chaining onto prev that replaces the PE state
// in full (the fallback path, so folds need no patch baseline).
func ckptDelta(sj string, prev, consumed uint64, state string) *subjob.Delta {
	return &subjob.Delta{
		SubjobID:   sj,
		PrevSeq:    prev,
		Consumed:   map[string]uint64{"in": consumed},
		PEDeltas:   [][]byte{nil},
		PEFull:     [][]byte{[]byte(state)},
		Pipes:      [][]element.Element{},
		PipeSet:    []bool{},
		StateUnits: 1,
	}
}

func mustPutSnap(t *testing.T, c *Catalog, sj string, seq uint64, s *subjob.Snapshot) {
	t.Helper()
	payload, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.put(sj, seq, s.ElementUnits(), payload); err != nil {
		t.Fatalf("put full @%d: %v", seq, err)
	}
}

func mustPutDelta(t *testing.T, c *Catalog, sj string, seq uint64, d *subjob.Delta) {
	t.Helper()
	payload, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.put(sj, seq, d.ElementUnits(), payload); err != nil {
		t.Fatalf("put delta @%d: %v", seq, err)
	}
}

func seqsOf(t *testing.T, c *Catalog, sj string) []uint64 {
	t.Helper()
	entries, err := c.Entries(sj)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = e.Seq
	}
	return out
}

// catalogBackends runs a subtest against both backend implementations.
func catalogBackends(t *testing.T, fn func(t *testing.T, b Backend)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMemBackend()) })
	t.Run("disk", func(t *testing.T) {
		b, err := NewDiskBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, b)
	})
}

func TestCatalogPutRestoreFoldsChain(t *testing.T) {
	catalogBackends(t, func(t *testing.T, b Backend) {
		c := NewCatalog(b, Retention{})
		const sj = "j/sj"
		mustPutSnap(t, c, sj, 1, ckptSnap(sj, 10, "base"))
		mustPutDelta(t, c, sj, 2, ckptDelta(sj, 1, 20, "after-2"))
		mustPutDelta(t, c, sj, 3, ckptDelta(sj, 2, 30, "after-3"))

		head, ok, err := c.Head(sj)
		if err != nil || !ok || head != 3 {
			t.Fatalf("head = %d, %v, %v; want 3", head, ok, err)
		}
		snap, seq, err := c.Restore(sj, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 3 || snap.Consumed["in"] != 30 || string(snap.PEStates[0]) != "after-3" {
			t.Fatalf("restored seq=%d consumed=%v state=%q", seq, snap.Consumed, snap.PEStates[0])
		}
		// Restoring mid-chain replays only the prefix.
		snap, seq, err = c.Restore(sj, 2)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 2 || snap.Consumed["in"] != 20 {
			t.Fatalf("mid-chain restore seq=%d consumed=%v", seq, snap.Consumed)
		}
	})
}

func TestCatalogHeadIgnoresBrokenChains(t *testing.T) {
	c := NewCatalog(NewMemBackend(), Retention{})
	const sj = "j/sj"
	mustPutSnap(t, c, sj, 1, ckptSnap(sj, 10, "base"))
	// Delta at 4 chains onto a missing seq 3: not restorable.
	mustPutDelta(t, c, sj, 4, ckptDelta(sj, 3, 40, "dangling"))
	head, ok, err := c.Head(sj)
	if err != nil || !ok || head != 1 {
		t.Fatalf("head = %d, %v, %v; want 1 (the full)", head, ok, err)
	}
	if _, _, err := c.Restore(sj, 4); err == nil {
		t.Fatal("restore of a broken chain succeeded")
	}
}

// TestCatalogGCPinsHeadChain is the chain-head pinning guarantee: GC must
// never collect a full checkpoint a live delta chain still folds onto,
// however tight the retention bounds are.
func TestCatalogGCPinsHeadChain(t *testing.T) {
	catalogBackends(t, func(t *testing.T, b Backend) {
		c := NewCatalog(b, Retention{MaxCheckpoints: 2})
		const sj = "j/sj"
		mustPutSnap(t, c, sj, 1, ckptSnap(sj, 10, "base"))
		mustPutDelta(t, c, sj, 2, ckptDelta(sj, 1, 20, "d2"))
		mustPutDelta(t, c, sj, 3, ckptDelta(sj, 2, 30, "d3"))

		// Three entries against a bound of two — but all three form the
		// head chain, so every one is pinned.
		if got := seqsOf(t, c, sj); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
			t.Fatalf("GC collected pinned chain entries: %v", got)
		}
		if _, _, err := c.Restore(sj, 0); err != nil {
			t.Fatalf("head chain not restorable after GC: %v", err)
		}

		// A re-basing full moves the head; the old chain unpins and the
		// count bound finally applies.
		mustPutSnap(t, c, sj, 4, ckptSnap(sj, 40, "rebase"))
		got := seqsOf(t, c, sj)
		if len(got) > 2 {
			t.Fatalf("count bound not applied after rebase: %v", got)
		}
		if got[len(got)-1] != 4 {
			t.Fatalf("rebase full collected: %v", got)
		}
		snap, seq, err := c.Restore(sj, 0)
		if err != nil || seq != 4 || string(snap.PEStates[0]) != "rebase" {
			t.Fatalf("restore after rebase: seq=%d err=%v", seq, err)
		}
	})
}

// TestCatalogGCPinsOutOfOrderDeltas covers the out-of-order arrival case:
// a delta above the head (its link still missing) must survive GC, and
// once the missing link arrives the whole chain — including the full the
// bounds would otherwise have collected — is restorable.
func TestCatalogGCPinsOutOfOrderDeltas(t *testing.T) {
	catalogBackends(t, func(t *testing.T, b Backend) {
		c := NewCatalog(b, Retention{MaxCheckpoints: 1})
		const sj = "j/sj"
		mustPutSnap(t, c, sj, 1, ckptSnap(sj, 10, "base"))
		// Delta 3 arrives before delta 2: head stays 1, 3 dangles above it.
		mustPutDelta(t, c, sj, 3, ckptDelta(sj, 2, 30, "d3"))
		if got := seqsOf(t, c, sj); !reflect.DeepEqual(got, []uint64{1, 3}) {
			t.Fatalf("GC collected the dangling delta or its future base: %v", got)
		}
		// The missing link arrives; the chain completes through it.
		mustPutDelta(t, c, sj, 2, ckptDelta(sj, 1, 20, "d2"))
		head, ok, err := c.Head(sj)
		if err != nil || !ok || head != 3 {
			t.Fatalf("head = %d after late link, want 3 (err=%v)", head, err)
		}
		snap, _, err := c.Restore(sj, 0)
		if err != nil {
			t.Fatalf("late-completed chain not restorable: %v", err)
		}
		if string(snap.PEStates[0]) != "d3" || snap.Consumed["in"] != 30 {
			t.Fatalf("restored state %q consumed %v", snap.PEStates[0], snap.Consumed)
		}
	})
}

func TestCatalogCompact(t *testing.T) {
	catalogBackends(t, func(t *testing.T, b Backend) {
		c := NewCatalog(b, Retention{})
		const sj = "j/sj"
		mustPutSnap(t, c, sj, 1, ckptSnap(sj, 10, "base"))
		mustPutDelta(t, c, sj, 2, ckptDelta(sj, 1, 20, "d2"))
		mustPutDelta(t, c, sj, 3, ckptDelta(sj, 2, 30, "d3"))
		want, _, err := c.Restore(sj, 0)
		if err != nil {
			t.Fatal(err)
		}

		head, err := c.Compact(sj)
		if err != nil || head != 3 {
			t.Fatalf("compact head=%d err=%v", head, err)
		}
		entries, _ := c.Entries(sj)
		if len(entries) != 1 || !entries[0].IsFull() || entries[0].Seq != 3 {
			t.Fatalf("compacted entries: %+v", entries)
		}
		got, seq, err := c.Restore(sj, 0)
		if err != nil || seq != 3 {
			t.Fatalf("restore after compact: seq=%d err=%v", seq, err)
		}
		if got.Consumed["in"] != want.Consumed["in"] || string(got.PEStates[0]) != string(want.PEStates[0]) {
			t.Fatalf("compacted restore diverged: %v vs %v", got.Consumed, want.Consumed)
		}
	})
}

func TestCatalogRejectsForeignPayloadAndAllowsInstanceKeys(t *testing.T) {
	c := NewCatalog(NewMemBackend(), Retention{})
	payload, err := ckptSnap("j/sj", 10, "s").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.put("j/other", 1, 1, payload); err == nil {
		t.Fatal("foreign payload accepted")
	}
	if c.counters("j/other").PersistErrs != 1 {
		t.Fatalf("persist error not counted: %+v", c.counters("j/other"))
	}
	// An "@instance" suffix keys copies apart while still cross-checking
	// the payload's own subjob ID.
	if err := c.put("j/sj@p0", 1, 1, payload); err != nil {
		t.Fatalf("instance key rejected: %v", err)
	}
	if err := c.put("j/other@p0", 1, 1, payload); err == nil {
		t.Fatal("foreign payload accepted under instance key")
	}
	if _, seq, err := c.Restore("j/sj@p0", 0); err != nil || seq != 1 {
		t.Fatalf("instance-keyed restore: seq=%d err=%v", seq, err)
	}
}

// TestDiskBackendSurvivesReopen is the basic durability property: a new
// backend over the same directory sees everything a previous one stored.
func TestDiskBackendSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCatalog(b1, Retention{})
	const sj = "j/sj"
	mustPutSnap(t, c1, sj, 1, ckptSnap(sj, 10, "base"))
	mustPutDelta(t, c1, sj, 2, ckptDelta(sj, 1, 20, "d2"))

	b2, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCatalog(b2, Retention{})
	snap, seq, err := c2.Restore(sj, 0)
	if err != nil || seq != 2 {
		t.Fatalf("reopened restore: seq=%d err=%v", seq, err)
	}
	if snap.Consumed["in"] != 20 || string(snap.PEStates[0]) != "d2" {
		t.Fatalf("reopened state %q consumed %v", snap.PEStates[0], snap.Consumed)
	}
}

// TestDiskBackendCrashRecovery simulates the two crash windows of the
// temp-file + rename protocol: a stray .tmp from a crash mid-write is
// deleted, and an orphan payload from a crash between payload rename and
// manifest rewrite is adopted back into the manifest via its header.
func TestDiskBackendCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCatalog(b1, Retention{})
	const sj = "j/sj"
	mustPutSnap(t, c1, sj, 1, ckptSnap(sj, 10, "base"))

	// Locate the subjob directory on disk.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("readdir: %v (%d entries)", err, len(entries))
	}
	sjDir := filepath.Join(dir, entries[0].Name())

	// Crash window 1: a half-written temp file.
	if err := os.WriteFile(filepath.Join(sjDir, "garbage.ckpt.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash window 2: a payload renamed into place whose manifest rewrite
	// never happened.
	orphan, err := ckptDelta(sj, 1, 20, "orphan").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sjDir, "0000000000000002.ckpt"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}

	b2, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCatalog(b2, Retention{})
	list, err := c2.Entries(sj)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[1].Seq != 2 || list[1].Kind != KindDelta || list[1].PrevSeq != 1 {
		t.Fatalf("orphan not adopted: %+v", list)
	}
	snap, seq, err := c2.Restore(sj, 0)
	if err != nil || seq != 2 || string(snap.PEStates[0]) != "orphan" {
		t.Fatalf("restore with adopted orphan: seq=%d err=%v", seq, err)
	}
	files, err := os.ReadDir(sjDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".tmp") {
			t.Fatalf("stray temp file survived recovery: %s", f.Name())
		}
	}
}

// flakyBackend injects Put failures to test persist-before-ack.
type flakyBackend struct {
	Backend
	fail bool
}

func (f *flakyBackend) Put(e CatalogEntry, payload []byte) error {
	if f.fail {
		return errors.New("injected persist failure")
	}
	return f.Backend.Put(e, payload)
}

// TestStorePersistsBeforeAck wires a catalog-backed Store into the full
// manager rig: a checkpoint is acknowledged only once the catalog holds
// it, a persist failure withholds the acknowledgment and reports a chain
// break, and the recovery full re-bases both memory and catalog.
func TestStorePersistsBeforeAck(t *testing.T) {
	r := newRig(t, InMemory)
	fb := &flakyBackend{Backend: NewMemBackend()}
	cat := NewCatalog(fb, Retention{})
	store := NewStore(r.secM, "j/sj2", &Image{}, StoreOptions{Catalog: cat})
	t.Cleanup(store.Close)

	// The rig's default store listens on j/sj; run a second runtime for
	// j/sj2 so streams do not collide.
	spec := r.rt.Spec()
	spec.ID = "j/sj2"
	rt2, err := subjob.New(spec, r.priM, false)
	if err != nil {
		t.Fatal(err)
	}
	rt2.Start()
	t.Cleanup(rt2.Stop)
	cm := NewSweeping(Config{Runtime: rt2, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	breaks := make(chan struct{}, 8)
	store.SetOnChainBreak(func() {
		select {
		case breaks <- struct{}{}:
		default:
		}
	})
	cm.Start()
	defer cm.Stop()

	feed := func(from, to uint64) {
		t.Helper()
		r.feedRuntime(t, rt2, from, to)
	}

	feed(1, 5)
	cm.CheckpointNow()
	r.expectAck(t, 5)
	if head, ok, _ := cat.Head("j/sj2"); !ok || head != 1 {
		t.Fatalf("catalog head %d after first checkpoint", head)
	}

	// Persist failures must withhold acknowledgments and flag the chain.
	fb.fail = true
	feed(6, 9)
	cm.CheckpointNow()
	select {
	case seq := <-r.acks:
		t.Fatalf("acked %d though persist failed", seq)
	case <-time.After(100 * time.Millisecond):
	}
	select {
	case <-breaks:
	case <-time.After(2 * time.Second):
		t.Fatal("persist failure did not report a chain break")
	}
	if st := store.Stats(); st.PersistErrors == 0 || st.DurableSeq != 1 {
		t.Fatalf("stats after failure: %+v", st)
	}

	// Recovery: the next full re-bases memory and catalog; the pending
	// acknowledgment is subsumed by the newer one.
	fb.fail = false
	cm.ForceFull()
	feed(10, 12)
	cm.CheckpointNow()
	r.expectAck(t, 12)
	head, ok, _ := cat.Head("j/sj2")
	if !ok || head < 3 {
		t.Fatalf("catalog head %d after recovery", head)
	}
	snap, _, err := cat.Restore("j/sj2", 0)
	if err != nil || snap.Consumed["in"] != 12 {
		t.Fatalf("catalog restore after recovery: consumed %v err %v", snap.Consumed, err)
	}
}

// TestStoreCloseDrainsPendingCheckpoints is the shutdown-race regression
// test: checkpoints already accepted into the store's work queue must be
// stored and acknowledged even when Close races the arrival. Before the
// fix, run()'s stop/work select dropped the queued backlog about half the
// time; twenty rounds make a seed failure overwhelmingly likely.
func TestStoreCloseDrainsPendingCheckpoints(t *testing.T) {
	r := newRig(t, InMemory)
	for round := 0; round < 20; round++ {
		sjID := "j/close" + string(rune('a'+round))
		acks := make(chan uint64, 64)
		r.upM.RegisterStream(subjob.CkptAckStream(sjID), func(_ transport.NodeID, msg transport.Message) {
			acks <- msg.Seq
		})
		s := NewStore(r.secM, sjID, &Image{}, StoreOptions{})

		const n = 8
		for seq := uint64(1); seq <= n; seq++ {
			snap := &subjob.Snapshot{
				SubjobID:   sjID,
				Consumed:   map[string]uint64{"in": seq},
				PEStates:   [][]byte{[]byte("s")},
				Pipes:      [][]element.Element{},
				StateUnits: 1,
			}
			payload, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			// Queue directly through the store's handler, as the transport
			// would deliver it.
			s.receive(r.upM.ID(), transport.Message{
				Kind:   transport.KindControl,
				Stream: subjob.CkptStream(sjID),
				Seq:    seq,
				State:  payload,
			})
		}
		s.Close()

		got := 0
		deadline := time.After(2 * time.Second)
	recv:
		for got < n {
			select {
			case <-acks:
				got++
			case <-deadline:
				break recv
			}
		}
		if got != n {
			t.Fatalf("round %d: %d/%d queued checkpoints acknowledged after Close", round, got, n)
		}
		if s.Stored() != n {
			t.Fatalf("round %d: stored %d, want %d", round, s.Stored(), n)
		}
		r.upM.UnregisterStream(subjob.CkptAckStream(sjID))
	}
}
