package pe

import (
	"testing"

	"streamha/internal/element"
	"streamha/internal/queue"
)

// dropSink takes ownership of a batch and forgets it.
type dropSink struct{ pushed int }

func (s *dropSink) Push(elems []element.Element) { s.pushed += len(elems) }

// TestProcessBatchAllocatesOnlyTheOutputArray pins what a batch costs the
// allocator: the backing array handed to the sink and nothing else. A
// per-batch emit closure added two objects to it (the closure and the
// slice header it captured).
func TestProcessBatchAllocatesOnlyTheOutputArray(t *testing.T) {
	sink := &dropSink{}
	p := New(Config{Name: "t", Logic: &CounterLogic{}, Sink: sink})
	ins := make([]queue.In, 16)
	for i := range ins {
		seq := uint64(i + 1)
		ins[i] = queue.In{Stream: "s", Elem: element.Element{ID: seq, Seq: seq, Payload: int64(seq)}}
	}
	p.processBatch(ins) // creates the consumed-position entry for "s"
	const runs = 100
	if got := testing.AllocsPerRun(runs, func() { p.processBatch(ins) }); got != 1 {
		t.Errorf("processBatch made %v allocations per batch, want 1", got)
	}
	if want := (runs + 2) * len(ins); sink.pushed != want {
		t.Errorf("sink received %d elements, want %d", sink.pushed, want)
	}
	if p.outs != nil {
		t.Error("the PE kept a reference to a batch it handed to its sink")
	}
}
