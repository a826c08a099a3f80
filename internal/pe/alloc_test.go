package pe

import (
	"testing"

	"streamha/internal/element"
	"streamha/internal/queue"
)

// dropSink takes ownership of a batch and forgets it.
type dropSink struct{ pushed int }

func (s *dropSink) Push(elems []element.Element) { s.pushed += len(elems) }

// inBatch returns n popped entries of stream s with sequence numbers from
// first on.
func inBatch(s string, first uint64, n int) []queue.In {
	ins := make([]queue.In, n)
	for i := range ins {
		seq := first + uint64(i)
		ins[i] = queue.In{Stream: s, Elem: element.Element{ID: seq, Seq: seq, Payload: int64(seq)}}
	}
	return ins
}

// TestProcessBatchAllocatesOnlyTheOutputArray pins what a batch costs the
// allocator. A sink that takes ownership (the subjob's adapter of
// Output.Publish) gets a fresh backing array per batch and nothing else is
// allocated: a per-batch emit closure added two objects to it (the closure
// and the slice header it captured). A *Pipe copies what it is pushed, so
// a PE feeding one reuses a single array, the pipe pops into a buffer it
// owns, and a batch pushed and popped allocates nothing.
func TestProcessBatchAllocatesOnlyTheOutputArray(t *testing.T) {
	const runs = 100
	ins := inBatch("s", 1, 16)
	t.Run("owning sink", func(t *testing.T) {
		sink := &dropSink{}
		p := New(Config{Logic: &CounterLogic{}, Sink: sink})
		p.processBatch(ins) // creates the consumed-position entry for "s"
		if got := testing.AllocsPerRun(runs, func() { p.processBatch(ins) }); got != 1 {
			t.Errorf("processBatch made %v allocations per batch, want 1", got)
		}
		if want := (runs + 2) * len(ins); sink.pushed != want {
			t.Errorf("sink received %d elements, want %d", sink.pushed, want)
		}
		if p.outs != nil {
			t.Error("the PE kept a reference to a batch it handed to its sink")
		}
	})
	t.Run("pipe sink", func(t *testing.T) {
		pipe := NewPipe()
		p := New(Config{Logic: &CounterLogic{}, Sink: pipe})
		popped := 0
		batch := func() {
			p.processBatch(ins)
			popped += len(pipe.TryPop(len(ins)))
		}
		batch() // sizes the output array and the pipe's buffers
		if got := testing.AllocsPerRun(runs, batch); got != 0 {
			t.Errorf("processBatch into a pipe made %v allocations per batch, want 0", got)
		}
		if want := (runs + 2) * len(ins); popped != want {
			t.Errorf("popped %d elements from the pipe, want %d", popped, want)
		}
	})
}

// TestPEReusesItsArrayOnlyBecausePipeCopies: a PE feeding a Pipe writes
// every batch into the same array, so the pipe must hold copies. Two
// batches processed before anything is popped must both come out intact
// and in order; a Push that kept the PE's array would show the second
// batch twice.
func TestPEReusesItsArrayOnlyBecausePipeCopies(t *testing.T) {
	pipe := NewPipe()
	p := New(Config{Logic: &CounterLogic{}, Sink: pipe})
	p.processBatch(inBatch("s", 1, 4))
	p.processBatch(inBatch("s", 5, 4))
	got := pipe.TryPop(100)
	if len(got) != 8 {
		t.Fatalf("pipe holds %d elements, want 8", len(got))
	}
	for i, in := range got {
		// CounterLogic passes the ID on and adds one to the payload.
		id := uint64(i + 1)
		if in.Elem.ID != id || in.Elem.Payload != int64(id)+1 {
			t.Fatalf("entry %d = %+v, want ID %d payload %d", i, in.Elem, id, id+1)
		}
	}
}
