package core

import (
	"reflect"
	"testing"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// foldRig is a suspended two-PE standby (one pipe) and a closed store for
// it, whose Fold the test calls directly: with the store's goroutine gone,
// the test goroutine is the only user of the store's decoder.
type foldRig struct {
	from  transport.NodeID
	ckpt  string // the subjob's checkpoint stream
	sec   *subjob.Runtime
	store *StandbyStore
	state []byte // a fresh CounterLogic{Pad: 1} state
}

func newFoldRig(t *testing.T) *foldRig {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	priM, err := machine.New("pri", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	secM, err := machine.New("sec", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	counter := func() pe.Logic { return &pe.CounterLogic{Pad: 1} }
	sec, err := subjob.New(subjob.Spec{
		JobID:     "j",
		ID:        "j/sj",
		InStreams: []string{"in"},
		Owners:    map[string]string{"in": "up"},
		OutStream: "out",
		PEs:       []subjob.PESpec{{Name: "a", NewLogic: counter}, {Name: "b", NewLogic: counter}},
	}, secM, true)
	if err != nil {
		t.Fatal(err)
	}
	sec.Start()
	t.Cleanup(sec.Stop)
	store := newStandbyStore(sec)
	store.Close()
	return &foldRig{from: priM.ID(), ckpt: subjob.CkptStream("j/sj"), sec: sec, store: store, state: counter().Snapshot()}
}

func elemsFrom(first, n uint64) []element.Element {
	out := make([]element.Element, n)
	for i := range out {
		id := first + uint64(i)
		out[i] = element.Element{ID: id, Seq: id, Payload: int64(id)}
	}
	return out
}

// full encodes a snapshot at position consumed whose pipe holds pipe and
// whose output retains out, which must start right after floor.
func (r *foldRig) full(t *testing.T, consumed uint64, pipe, out []element.Element, floor uint64) []byte {
	t.Helper()
	snap := &subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": consumed},
		PEStates: [][]byte{r.state, r.state},
		Pipes:    [][]element.Element{pipe},
		Output:   queue.OutputSnapshot{StreamID: "out", Floor: floor, NextSeq: floor + uint64(len(out)) + 1, Buf: out},
	}
	b, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// delta encodes the k-th delta after a full whose output stood at
// NextSeq 3 (k from 1): it patches the last pad byte of both PEs, replaces
// the pipe, publishes output seq k+2 and trims everything before it.
func (r *foldRig) delta(t *testing.T, k uint64) []byte {
	t.Helper()
	patch := pe.AppendPatchHeader(nil, len(r.state), 1)
	patch = pe.AppendPatchChunk(patch, len(r.state)-1, []byte{byte(k)})
	d := &subjob.Delta{
		SubjobID: "j/sj",
		PrevSeq:  k,
		Consumed: map[string]uint64{"in": 100 + k},
		PEDeltas: [][]byte{patch, patch},
		PEFull:   [][]byte{nil, nil},
		Pipes:    [][]element.Element{elemsFrom(1000+k, 2)},
		PipeSet:  []bool{true},
		Output: queue.OutputDelta{
			StreamID: "out", Floor: k + 1, NextSeq: k + 3, FromSeq: k + 2, New: elemsFrom(k+2, 1),
		},
		HasOutput: true,
	}
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (r *foldRig) apply(seq uint64, state []byte) {
	r.store.Fold(r.from, transport.Message{
		Kind:   transport.KindCheckpoint,
		Stream: r.ckpt,
		Seq:    seq,
		State:  state,
	})
}

// TestStandbyFoldAllocatesNothing: a warmed standby store folds a full
// snapshot, and a delta that extends its chain, into the suspended copy
// without allocating — the decode reuses the store's Decoder, the
// coverage check its positions map, and every restore copies into buffers
// the copy already owns.
func TestStandbyFoldAllocatesNothing(t *testing.T) {
	r := newFoldRig(t)
	full := r.full(t, 100, elemsFrom(500, 2), elemsFrom(1, 2), 0)
	for i := 0; i < 3; i++ {
		r.apply(1, full)
	}
	if got := testing.AllocsPerRun(100, func() { r.apply(1, full) }); got != 0 {
		t.Errorf("a warmed full-snapshot fold made %v allocations, want 0", got)
	}

	const warm, runs = 5, 100
	deltas := make([][]byte, warm+runs+1)
	for i := range deltas {
		deltas[i] = r.delta(t, uint64(i+1))
	}
	next := 0
	fold := func() {
		r.apply(uint64(next+2), deltas[next])
		next++
	}
	for i := 0; i < warm; i++ {
		fold()
	}
	if got := testing.AllocsPerRun(runs, fold); got != 0 {
		t.Errorf("a warmed delta fold made %v allocations, want 0", got)
	}
	if got, want := r.store.Applied(), 3+101+len(deltas); got != want || r.store.DeltaDrops() != 0 {
		t.Fatalf("applied %d (want %d), %d deltas dropped", got, want, r.store.DeltaDrops())
	}
	last := uint64(len(deltas))
	if got := r.sec.ConsumedPositions()["in"]; got != 100+last {
		t.Fatalf("standby position %d, want %d", got, 100+last)
	}
	if got := r.sec.Out().Snapshot().Buf; !reflect.DeepEqual(got, elemsFrom(last+2, 1)) {
		t.Fatalf("standby output %v, want seq %d alone", got, last+2)
	}
}

// TestStandbyFoldCopiesOutOfTheDecoder: what a fold keeps — output ring,
// pipe contents — is copied out of the decoded values, so the store's
// next decode, which writes into the same buffers, cannot change the
// standby.
func TestStandbyFoldCopiesOutOfTheDecoder(t *testing.T) {
	r := newFoldRig(t)
	pipeA, outA := elemsFrom(500, 3), elemsFrom(1, 2)
	a := r.full(t, 100, pipeA, outA, 0)
	b := r.full(t, 200, elemsFrom(900, 3), elemsFrom(901, 2), 900)

	snap, _, err := r.store.sb.dec.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	decodedOut := &snap.Output.Buf[0]
	r.apply(1, a)
	if r.store.Applied() != 1 {
		t.Fatal("payload A was not folded")
	}
	snap, _, err = r.store.sb.dec.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if &snap.Output.Buf[0] != decodedOut {
		t.Fatal("the decoder did not reuse its output buffer; the test would prove nothing")
	}

	if got := r.sec.Out().Snapshot().Buf; !reflect.DeepEqual(got, outA) {
		t.Errorf("standby output after the next decode = %v, want A's %v", got, outA)
	}
	if got := r.sec.Snapshot().Pipes[0]; !reflect.DeepEqual(got, pipeA) {
		t.Errorf("standby pipe after the next decode = %v, want A's %v", got, pipeA)
	}
	if got := r.sec.ConsumedPositions()["in"]; got != 100 {
		t.Errorf("standby position %d, want A's 100", got)
	}
}
