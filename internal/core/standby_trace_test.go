package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// recordingBackend is an in-memory catalog backend that records the
// sequence number of every checkpoint it persists and fails on demand.
type recordingBackend struct {
	checkpoint.Backend
	mu   sync.Mutex
	fail bool
	puts []uint64
}

func (b *recordingBackend) Put(e checkpoint.CatalogEntry, payload []byte) error {
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

// standbyTrace runs a closed standby store over a recording catalog and
// folds scripted checkpoints into it one at a time.
type standbyTrace struct {
	*standbyRig
	store  *StandbyStore
	be     *recordingBackend
	base   []byte
	breaks int
	acks   chan uint64
	fence  chan struct{}
	// last holds the counters of the previous row.
	last [6]int
}

func newStandbyTrace(t *testing.T) *standbyTrace {
	t.Helper()
	r := newStandbyRig(t)
	be := &recordingBackend{Backend: checkpoint.NewMemBackend()}
	st := &standbyTrace{
		standbyRig: r,
		be:         be,
		base:       (&pe.CounterLogic{Pad: 1}).Snapshot(),
		acks:       make(chan uint64, 8),
		fence:      make(chan struct{}, 1),
	}
	sb := &standby{rt: r.sec}
	st.store = &StandbyStore{
		Store: checkpoint.NewStore(r.sec.Machine(), r.sec.Spec().ID, sb, checkpoint.StoreOptions{
			Catalog: checkpoint.NewCatalog(be, checkpoint.Retention{}),
		}),
		sb: sb,
	}
	st.store.Close()
	st.store.SetOnChainBreak(func() { st.breaks++ })
	r.priM.RegisterStream(subjob.CkptAckStream("j/sj"), func(_ transport.NodeID, msg transport.Message) {
		st.acks <- msg.Seq
	})
	r.priM.RegisterStream("fence", func(transport.NodeID, transport.Message) { st.fence <- struct{}{} })
	return st
}

// fold hands one checkpoint to the closed store's fold directly.
func (st *standbyTrace) fold(seq uint64, payload []byte) {
	st.store.Fold(st.priM.ID(), transport.Message{
		Kind:   transport.KindCheckpoint,
		Stream: subjob.CkptStream("j/sj"),
		Seq:    seq,
		State:  payload,
	})
}

func (st *standbyTrace) full(t *testing.T, consumed uint64) []byte {
	t.Helper()
	b, err := (&subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": consumed},
		PEStates: [][]byte{st.base},
		Output:   queue.OutputSnapshot{StreamID: "out", NextSeq: 1},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (st *standbyTrace) delta(t *testing.T, prev, consumed uint64) []byte {
	t.Helper()
	patch := pe.AppendPatchHeader(nil, len(st.base), 1)
	patch = pe.AppendPatchChunk(patch, len(st.base)-1, []byte{byte(consumed)})
	b, err := (&subjob.Delta{
		SubjobID: "j/sj",
		PrevSeq:  prev,
		Consumed: map[string]uint64{"in": consumed},
		PEDeltas: [][]byte{patch},
		PEFull:   [][]byte{nil},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (st *standbyTrace) partial(t *testing.T, consumed uint64) []byte {
	t.Helper()
	b, err := (&subjob.Partial{
		SubjobID:  "j/sj",
		Consumed:  map[string]uint64{"in": consumed},
		PEPatches: [][]byte{nil},
		PEFull:    [][]byte{st.base},
		OutNext:   1,
		ColdBytes: 7,
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// step folds one checkpoint and returns the row it produced: its
// acknowledgments, persisted sequences, chain-break callbacks and counter
// increments, then the cold bytes and standby position after it.
func (st *standbyTrace) step(t *testing.T, name string, seq uint64, payload []byte) string {
	t.Helper()
	st.fold(seq, payload)
	// The fold sends its acknowledgment before it returns, and the link to
	// pri is FIFO: once the fence arrives, so has every ack.
	st.secM.Send(st.priM.ID(), transport.Message{Kind: transport.KindControl, Stream: "fence"})
	select {
	case <-st.fence:
	case <-time.After(2 * time.Second):
		t.Fatal("fence lost")
	}
	acks := []uint64{}
	for len(st.acks) > 0 {
		acks = append(acks, <-st.acks)
	}
	persisted := st.be.takePuts()
	if persisted == nil {
		persisted = []uint64{}
	}
	partials, partialSkips, cold := st.store.PartialStats()
	now := [6]int{st.breaks, st.store.Applied(), st.store.Stats().Skipped, st.store.DeltaDrops(), partials, partialSkips}
	prev := st.last
	st.last = now
	return fmt.Sprintf("%s: acks=%v persisted=%v breaks+%d applied+%d skipped+%d drops+%d partials+%d/+%d cold=%d in=%d",
		name, acks, persisted, now[0]-prev[0], now[1]-prev[1], now[2]-prev[2], now[3]-prev[3],
		now[4]-prev[4], now[5]-prev[5], cold, st.sec.ConsumedPositions()["in"])
}

// TestStandbyTraceCharacterisation pins what a standby store does with a
// scripted checkpoint stream fed one message at a time: which checkpoints
// it acknowledges and persists, how often it reports a chain break, its
// counters and the position of the suspended copy it refreshes. The rows
// were recorded on the standby store this package carried before it
// shared checkpoint.Store's receive, chain, persist and ack protocol;
// checkpoint.TestStoreTraceCharacterisation is its twin.
func TestStandbyTraceCharacterisation(t *testing.T) {
	st := newStandbyTrace(t)
	var got []string
	row := func(name string, seq uint64, payload []byte) {
		got = append(got, st.step(t, name, seq, payload))
	}
	row("full 1", 1, st.full(t, 10))
	row("delta 2 on 1", 2, st.delta(t, 1, 20))
	row("delta 4 on 3 (gap)", 4, st.delta(t, 3, 40))
	row("full 5 (re-base)", 5, st.full(t, 50))
	row("delta 6 on 5", 6, st.delta(t, 5, 60))
	row("delta 6 on 5 again", 6, st.delta(t, 5, 60))
	row("full 3 (below chain)", 3, st.full(t, 30))
	row("delta 7 on 6", 7, st.delta(t, 6, 70))
	row("full 8 (re-base)", 8, st.full(t, 80))
	row("full 9 (covered)", 9, st.full(t, 75))
	row("delta 10 on 9", 10, st.delta(t, 9, 100))
	row("full 11", 11, st.full(t, 110))
	st.sec.Resume()
	row("delta 12 on 11 (active)", 12, st.delta(t, 11, 120))
	row("full 13 (active)", 13, st.full(t, 130))
	st.sec.Suspend()
	row("full 14", 14, st.full(t, 140))
	row("partial 15", 15, st.partial(t, 150))
	row("partial 15 again", 15, st.partial(t, 150))
	row("partial 16 (covered)", 16, st.partial(t, 130))
	row("delta 17 on 14", 17, st.delta(t, 14, 170))
	st.be.setFail(true)
	row("full 18 (put fails)", 18, st.full(t, 180))
	st.be.setFail(false)
	row("delta 19 on 18", 19, st.delta(t, 18, 190))
	row("full 20", 20, st.full(t, 200))
	row("delta 21 on 20", 21, st.delta(t, 20, 210))
	row("delta 22 on 21 (covered)", 22, st.delta(t, 21, 205))
	row("delta 23 on 22", 23, st.delta(t, 22, 230))
	row("garbage 24", 24, []byte("not a checkpoint"))

	recorded := []string{
		"full 1: acks=[1] persisted=[1] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=10",
		"delta 2 on 1: acks=[2] persisted=[2] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=20",
		"delta 4 on 3 (gap): acks=[] persisted=[] breaks+1 applied+0 skipped+0 drops+1 partials+0/+0 cold=0 in=20",
		"full 5 (re-base): acks=[5] persisted=[5] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=50",
		"delta 6 on 5: acks=[6] persisted=[6] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=60",
		"delta 6 on 5 again: acks=[] persisted=[] breaks+1 applied+0 skipped+0 drops+1 partials+0/+0 cold=0 in=60",
		"full 3 (below chain): acks=[3] persisted=[3] breaks+0 applied+0 skipped+1 drops+0 partials+0/+0 cold=0 in=60",
		"delta 7 on 6: acks=[] persisted=[] breaks+1 applied+0 skipped+0 drops+1 partials+0/+0 cold=0 in=60",
		"full 8 (re-base): acks=[8] persisted=[8] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=80",
		"full 9 (covered): acks=[9] persisted=[9] breaks+0 applied+0 skipped+1 drops+0 partials+0/+0 cold=0 in=80",
		"delta 10 on 9: acks=[] persisted=[] breaks+1 applied+0 skipped+0 drops+1 partials+0/+0 cold=0 in=80",
		"full 11: acks=[11] persisted=[11] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=110",
		"delta 12 on 11 (active): acks=[] persisted=[] breaks+0 applied+0 skipped+1 drops+0 partials+0/+0 cold=0 in=110",
		"full 13 (active): acks=[13] persisted=[13] breaks+0 applied+0 skipped+1 drops+0 partials+0/+0 cold=0 in=110",
		"full 14: acks=[14] persisted=[14] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=140",
		"partial 15: acks=[15] persisted=[] breaks+0 applied+0 skipped+0 drops+0 partials+1/+0 cold=7 in=150",
		"partial 15 again: acks=[15] persisted=[] breaks+0 applied+0 skipped+0 drops+0 partials+0/+1 cold=7 in=150",
		"partial 16 (covered): acks=[16] persisted=[] breaks+0 applied+0 skipped+0 drops+0 partials+0/+1 cold=7 in=150",
		"delta 17 on 14: acks=[] persisted=[] breaks+1 applied+0 skipped+0 drops+1 partials+0/+0 cold=7 in=150",
		"full 18 (put fails): acks=[] persisted=[] breaks+1 applied+1 skipped+0 drops+0 partials+0/+0 cold=7 in=180",
		"delta 19 on 18: acks=[] persisted=[] breaks+1 applied+0 skipped+0 drops+1 partials+0/+0 cold=7 in=180",
		"full 20: acks=[20] persisted=[20] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=7 in=200",
		"delta 21 on 20: acks=[21] persisted=[21] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=7 in=210",
		"delta 22 on 21 (covered): acks=[22] persisted=[] breaks+0 applied+0 skipped+1 drops+0 partials+0/+0 cold=7 in=210",
		"delta 23 on 22: acks=[] persisted=[] breaks+1 applied+0 skipped+0 drops+1 partials+0/+0 cold=7 in=210",
		"garbage 24: acks=[] persisted=[] breaks+0 applied+0 skipped+0 drops+0 partials+0/+0 cold=7 in=210",
	}
	changed := map[string]string{
		// A checkpoint below an intact chain is covered: the standby holds,
		// and the catalog has persisted, the chain's head. It is
		// acknowledged as it stands, as the image store always did. The
		// recorded store skipped and re-persisted the older full, which
		// broke the chain...
		"full 3 (below chain)": "full 3 (below chain): acks=[3] persisted=[] breaks+0 applied+0 skipped+0 drops+0 partials+0/+0 cold=0 in=60",
		// ...so the next delta still extends the chain and folds.
		"delta 7 on 6": "delta 7 on 6: acks=[7] persisted=[7] breaks+0 applied+1 skipped+0 drops+0 partials+0/+0 cold=0 in=70",
		// Every acknowledged full or delta is persisted first. The recorded
		// store acknowledged a covered delta the catalog never held.
		"delta 22 on 21 (covered)": "delta 22 on 21 (covered): acks=[22] persisted=[22] breaks+0 applied+0 skipped+1 drops+0 partials+0/+0 cold=7 in=210",
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
