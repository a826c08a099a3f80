package subjob

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
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
