package subjob

import (
	"encoding/hex"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/queue"
	"streamha/internal/transport"
)

// TestSteadyBatchAllocatesOnlyThePublishedArray pins the data plane's
// per-batch floor on a started two-PE copy: the input queue and the pipe
// pop into buffers they own, the first PE reuses its output array because
// the pipe copies, and the one allocation left is the array the second PE
// hands to Output.Publish, which takes ownership of it.
func TestSteadyBatchAllocatesOnlyThePublishedArray(t *testing.T) {
	rt, _, _ := testRuntime(t, false)
	// An active subscriber on a node nobody hosts: its acks trim the output
	// ring, so retention does not grow, and the sends to it drop.
	rt.Out().Subscribe("down", DataStream("down", "out"), true)
	const n = 8 // the spec's BatchSize, so each push is one PE batch
	batch := make([]element.Element, n)
	next := uint64(1)
	cycle := func() {
		for i := range batch {
			batch[i] = element.Element{ID: next, Seq: next, Payload: int64(next)}
			next++
		}
		rt.In().Push("in", batch)
		for rt.PEs()[1].Processed() < next-1 {
			runtime.Gosched()
		}
		rt.Out().Ack("down", next-1)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 1 {
		t.Errorf("a steady batch made %v allocations, want 1", got)
	}
	if got := rt.Out().Len(); got != 0 {
		t.Errorf("output retained %d elements after acks", got)
	}
	if got := rt.ConsumedPositions()["in"]; got != next-1 {
		t.Errorf("consumed %d, want %d", got, next-1)
	}
}

// TestAppendToAllocatesNothing: encoding a snapshot, delta or partial with
// three consumed streams into a buffer of EncodedSize makes no
// allocation — the sorted consumed keys live on the stack — and the bytes
// are the format's, byte for byte.
func TestAppendToAllocatesNothing(t *testing.T) {
	consumed := map[string]uint64{"in-b": 7, "in-a": 300, "in-c": 1 << 40}
	cases := []struct {
		name string
		v    interface {
			EncodedSize() int
			AppendTo([]byte) []byte
		}
		want string
	}{
		{"snapshot", &Snapshot{
			SubjobID:   "j/sj",
			Consumed:   consumed,
			PEStates:   [][]byte{{1, 2, 3}, {4}},
			Pipes:      [][]element.Element{{{ID: 5, Origin: 6, Seq: 7, Payload: -8, Key: 9}}},
			Output:     queue.OutputSnapshot{StreamID: "out", Floor: 2, NextSeq: 4, Buf: []element.Element{{ID: 3, Seq: 3}}},
			StateUnits: 2,
		}, "5348533201046a2f736a0304696e2d61ac0204696e2d620704696e2d63808080808020020301020301040101000000000000000500000000000000060000000000000007fffffffffffffff8000000000000000900036f75740204010000000000000003000000000000000000000000000000030000000000000000000000000000000002"},
		{"delta", &Delta{
			SubjobID:   "j/sj",
			PrevSeq:    11,
			Consumed:   consumed,
			PEDeltas:   [][]byte{{9, 9}, nil},
			PEFull:     [][]byte{nil, {4}},
			Pipes:      [][]element.Element{{{ID: 6, Seq: 8}}},
			PipeSet:    []bool{true},
			HasOutput:  true,
			Output:     queue.OutputDelta{StreamID: "out", Floor: 3, NextSeq: 5, FromSeq: 4, New: []element.Element{{ID: 4, Seq: 4}}},
			StateUnits: 1,
		}, "5348443201046a2f736a0b010304696e2d61ac0204696e2d620704696e2d638080808080200201020909020104010101000000000000000600000000000000000000000000000008000000000000000000000000000000000001036f7574030504010000000000000004000000000000000000000000000000040000000000000000000000000000000001"},
		{"partial", &Partial{
			SubjobID:   "j/sj",
			Consumed:   consumed,
			PEPatches:  [][]byte{{9, 9}, nil},
			PEFull:     [][]byte{nil, {4}},
			OutNext:    5,
			ColdBytes:  100,
			StateUnits: 1,
		}, "5348503201046a2f736a0304696e2d61ac0204696e2d620704696e2d638080808080200564020102090902010401"},
	}
	for _, tc := range cases {
		buf := make([]byte, 0, tc.v.EncodedSize())
		if got := hex.EncodeToString(tc.v.AppendTo(buf)); got != tc.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
		if got := testing.AllocsPerRun(100, func() { tc.v.AppendTo(buf[:0]) }); got != 0 {
			t.Errorf("%s: AppendTo made %v allocations, want 0", tc.name, got)
		}
	}
}

// TestAckUpstreamAllocatesNothing: with two upstream copies delivering on
// the input stream, a warmed AckUpstream sends both their acks without
// allocating — the targets sit in a stack array, not a returned slice.
func TestAckUpstreamAllocatesNothing(t *testing.T) {
	rt, m, net := testRuntime(t, false)
	var acks atomic.Int64
	for _, id := range []string{"up1", "up2"} {
		up, err := machine.New(id, clock.New(), net)
		if err != nil {
			t.Fatal(err)
		}
		up.RegisterStream(AckStream("up", "in"), func(transport.NodeID, transport.Message) { acks.Add(1) })
		up.Send(m.ID(), transport.Message{
			Kind:     transport.KindData,
			Stream:   DataStream("j/sj", "in"),
			Elements: []element.Element{{ID: 1, Seq: 1}},
		})
	}
	waitProcessed(t, rt, 1)
	// The second copy's element is a duplicate; once it is counted, both
	// copies are noted as senders.
	deadline := time.Now().Add(2 * time.Second)
	for dups, _ := rt.In().Drops(); dups < 1; dups, _ = rt.In().Drops() {
		if time.Now().After(deadline) {
			t.Fatal("the second upstream copy's data never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	pos := rt.ConsumedPositions()
	for i := 0; i < 10; i++ {
		rt.AckUpstream(pos)
	}
	if got := testing.AllocsPerRun(100, func() { rt.AckUpstream(pos) }); got != 0 {
		t.Errorf("AckUpstream made %v allocations, want 0", got)
	}
	want := int64(2 * (10 + 101))
	deadline = time.Now().Add(2 * time.Second)
	for acks.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := acks.Load(); got != want {
		t.Fatalf("upstream copies received %d acks, want %d", got, want)
	}
}

// TestDeltaCycleAllocatesNoMoreThanFull: on a quiet copy whose output
// window holds elements, the checkpoint shipper's cycle for a delta —
// capture refilling the delta it encoded last, encode — allocates no more
// than its cycle for a full: capture, encode, ReleaseSnapshot.
func TestDeltaCycleAllocatesNoMoreThanFull(t *testing.T) {
	rt, m, net := testRuntime(t, false)
	feed(t, net, m.ID(), "j/sj", 1, 40)
	deadline := time.Now().Add(2 * time.Second)
	for rt.Out().Len() < 40 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	buf := make([]byte, 0, 1<<14)
	var snap *Snapshot
	full := func() {
		rt.WithPaused(func() { snap = rt.CaptureFull() })
		buf = snap.AppendTo(buf[:0])
		rt.ReleaseSnapshot(snap)
	}
	var d *Delta
	delta := func() {
		rt.WithPaused(func() {
			d, _ = rt.CaptureDelta(DeltaOptions{OutputSince: rt.Out().NextSeq(), IncludeOutput: true, OnlyPE: -1}, d)
		})
		buf = d.AppendTo(buf[:0])
	}
	for i := 0; i < 5; i++ {
		full()
		delta()
	}
	fullAllocs := testing.AllocsPerRun(100, full)
	for i := 0; i < 5; i++ {
		delta()
	}
	deltaAllocs := testing.AllocsPerRun(100, delta)
	if deltaAllocs > fullAllocs {
		t.Errorf("a delta cycle made %v allocations, a full cycle %v", deltaAllocs, fullAllocs)
	}
	if d.PEDeltas[0] == nil || d.PEDeltas[1] == nil {
		t.Fatal("the deltas shipped full PE states")
	}
}
