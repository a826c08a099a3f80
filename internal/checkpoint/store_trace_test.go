package checkpoint

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// recordingBackend is an in-memory catalog backend that records the
// sequence number of every checkpoint it persists and fails on demand.
type recordingBackend struct {
	Backend
	mu   sync.Mutex
	fail bool
	puts []uint64
}

func (b *recordingBackend) Put(e CatalogEntry, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail {
		return errors.New("injected persist failure")
	}
	b.puts = append(b.puts, e.Seq)
	return b.Backend.Put(e, payload)
}

func (b *recordingBackend) setFail(fail bool) {
	b.mu.Lock()
	b.fail = fail
	b.mu.Unlock()
}

// takePuts returns the sequences persisted since the previous call.
func (b *recordingBackend) takePuts() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.puts
	b.puts = nil
	return out
}

// traceStore runs a closed image store over a recording catalog and folds
// scripted checkpoints into it one at a time.
type traceStore struct {
	*storeHarness
	be     *recordingBackend
	breaks int
	fence  chan struct{}
	// last holds the counters of the previous row.
	last      StoreStats
	lastBreak int
}

func newTraceStore(t *testing.T) *traceStore {
	t.Helper()
	be := &recordingBackend{Backend: NewMemBackend()}
	h := newStoreHarnessWith(t, StoreOptions{Catalog: NewCatalog(be, Retention{})})
	h.store.Close()
	ts := &traceStore{storeHarness: h, be: be, fence: make(chan struct{}, 1)}
	h.store.SetOnChainBreak(func() { ts.breaks++ })
	h.pri.RegisterStream("fence", func(transport.NodeID, transport.Message) { ts.fence <- struct{}{} })
	return ts
}

// fold hands one checkpoint to the closed store's fold directly.
func (ts *traceStore) fold(seq uint64, payload []byte) {
	ts.store.Fold(ts.pri.ID(), transport.Message{
		Kind:   transport.KindCheckpoint,
		Stream: subjob.CkptStream("j/sj"),
		Seq:    seq,
		State:  payload,
	})
}

// step folds one checkpoint and returns the row it produced: its
// acknowledgments, persisted sequences, chain-break callbacks and counter
// increments, then the chain, durable sequence and image position after
// it.
func (ts *traceStore) step(t *testing.T, name string, seq uint64, payload []byte) string {
	t.Helper()
	ts.fold(seq, payload)
	// The fold sends its acknowledgments before it returns, and the link
	// to pri is FIFO: once the fence arrives, so has every ack.
	ts.sec.Send(ts.pri.ID(), transport.Message{Kind: transport.KindControl, Stream: "fence"})
	select {
	case <-ts.fence:
	case <-time.After(2 * time.Second):
		t.Fatal("fence lost")
	}
	acks := []uint64{}
	for len(ts.acks) > 0 {
		acks = append(acks, <-ts.acks)
	}
	persisted := ts.be.takePuts()
	if persisted == nil {
		persisted = []uint64{}
	}
	st, prev := ts.store.Stats(), ts.last
	image := uint64(0)
	if snap, ok := ts.store.Latest(); ok {
		image = snap.Consumed["in"]
	}
	row := fmt.Sprintf("%s: acks=%v persisted=%v breaks+%d stored+%d fulls+%d folds+%d drops+%d chain=%d durable=%d image=%d",
		name, acks, persisted, ts.breaks-ts.lastBreak, st.Stored-prev.Stored, st.Fulls-prev.Fulls,
		st.DeltaFolds-prev.DeltaFolds, st.DeltaDrops-prev.DeltaDrops, st.LatestSeq, st.DurableSeq, image)
	ts.last, ts.lastBreak = st, ts.breaks
	return row
}

// TestStoreTraceCharacterisation pins what an image store does with a
// scripted checkpoint stream fed one message at a time: which checkpoints
// it acknowledges and persists, how often it reports a chain break, its
// counters and the position of the image it holds. The rows were recorded
// on the image store this package carried before the receive, chain,
// persist and ack protocol was shared with the standby store;
// core.TestStandbyTraceCharacterisation is its twin.
func TestStoreTraceCharacterisation(t *testing.T) {
	ts := newTraceStore(t)
	state := make([]byte, 16)
	partial, err := (&subjob.Partial{SubjobID: "j/sj", Consumed: map[string]uint64{"in": 120},
		PEPatches: [][]byte{nil}, PEFull: [][]byte{state}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	row := func(name string, seq uint64, payload []byte) {
		got = append(got, ts.step(t, name, seq, payload))
	}
	row("full 1", 1, encFull(t, 10, state))
	row("delta 2 on 1", 2, encDelta(t, 1, 20, 16, 0, []byte{2}))
	row("delta 4 on 3 (gap)", 4, encDelta(t, 3, 40, 16, 0, []byte{4}))
	row("full 5 (re-base)", 5, encFull(t, 50, state))
	row("delta 6 on 5", 6, encDelta(t, 5, 60, 16, 0, []byte{6}))
	row("delta 6 on 5 again", 6, encDelta(t, 5, 60, 16, 0, []byte{6}))
	row("full 3 (below chain)", 3, encFull(t, 30, state))
	row("delta 7 on 6", 7, encDelta(t, 6, 70, 16, 0, []byte{7}))
	ts.be.setFail(true)
	row("delta 8 on 7 (put fails)", 8, encDelta(t, 7, 80, 16, 0, []byte{8}))
	ts.be.setFail(false)
	row("delta 9 on 8", 9, encDelta(t, 8, 90, 16, 0, []byte{9}))
	row("full 10", 10, encFull(t, 100, state))
	row("garbage 11", 11, []byte("not a checkpoint"))
	row("partial 12", 12, partial)
	row("delta 13 on 10", 13, encDelta(t, 10, 130, 16, 0, []byte{13}))

	recorded := []string{
		"full 1: acks=[1] persisted=[1] breaks+0 stored+1 fulls+1 folds+0 drops+0 chain=1 durable=1 image=10",
		"delta 2 on 1: acks=[2] persisted=[2] breaks+0 stored+1 fulls+0 folds+1 drops+0 chain=2 durable=2 image=20",
		"delta 4 on 3 (gap): acks=[] persisted=[] breaks+1 stored+0 fulls+0 folds+0 drops+1 chain=2 durable=2 image=20",
		"full 5 (re-base): acks=[5] persisted=[5] breaks+0 stored+1 fulls+1 folds+0 drops+0 chain=5 durable=5 image=50",
		"delta 6 on 5: acks=[6] persisted=[6] breaks+0 stored+1 fulls+0 folds+1 drops+0 chain=6 durable=6 image=60",
		"delta 6 on 5 again: acks=[6] persisted=[] breaks+0 stored+1 fulls+0 folds+0 drops+0 chain=6 durable=6 image=60",
		"full 3 (below chain): acks=[3] persisted=[] breaks+0 stored+1 fulls+0 folds+0 drops+0 chain=6 durable=6 image=60",
		"delta 7 on 6: acks=[7] persisted=[7] breaks+0 stored+1 fulls+0 folds+1 drops+0 chain=7 durable=7 image=70",
		"delta 8 on 7 (put fails): acks=[] persisted=[] breaks+1 stored+0 fulls+0 folds+1 drops+0 chain=8 durable=7 image=80",
		"delta 9 on 8: acks=[9] persisted=[9] breaks+0 stored+1 fulls+0 folds+1 drops+0 chain=9 durable=9 image=90",
		"full 10: acks=[10] persisted=[10] breaks+0 stored+1 fulls+1 folds+0 drops+0 chain=10 durable=10 image=100",
		"garbage 11: acks=[] persisted=[] breaks+0 stored+0 fulls+0 folds+0 drops+0 chain=10 durable=10 image=100",
		"partial 12: acks=[] persisted=[] breaks+0 stored+0 fulls+0 folds+0 drops+0 chain=10 durable=10 image=100",
		"delta 13 on 10: acks=[13] persisted=[13] breaks+0 stored+1 fulls+0 folds+1 drops+0 chain=13 durable=13 image=130",
	}
	changed := map[string]string{
		// A repeated sequence number is folded again, as the standby store
		// always did, so a repeated delta no longer extends the chain and is
		// dropped. The recorded store acknowledged it unfolded. Managers
		// never send a sequence number twice.
		"delta 6 on 5 again": "delta 6 on 5 again: acks=[] persisted=[] breaks+1 stored+0 fulls+0 folds+0 drops+1 chain=6 durable=6 image=60",
		// A failed persist breaks the chain. The recorded store kept folding
		// on its in-memory chain and acknowledged 9 with 8 missing from the
		// catalog, so upstream could trim past a hole in the durable chain.
		"delta 9 on 8": "delta 9 on 8: acks=[] persisted=[] breaks+1 stored+0 fulls+0 folds+0 drops+1 chain=8 durable=7 image=80",
	}
	want := append([]string(nil), recorded...)
	for i, r := range want {
		if now, ok := changed[r[:strings.IndexByte(r, ':')]]; ok {
			want[i] = now
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace differs from the recorded one:\n\t\"%s\",", strings.Join(got, "\",\n\t\""))
	}
}
