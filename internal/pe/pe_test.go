package pe

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"streamha/internal/element"
	"streamha/internal/queue"
)

// memSink collects outputs.
type memSink struct {
	mu  sync.Mutex
	out []element.Element
}

func (s *memSink) Push(elems []element.Element) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out = append(s.out, elems...)
}

func (s *memSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.out)
}

func (s *memSink) waitFor(t *testing.T, n int) []element.Element {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.len() >= n {
			s.mu.Lock()
			defer s.mu.Unlock()
			return append([]element.Element(nil), s.out...)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d outputs (have %d)", n, s.len())
	return nil
}

func pushSeq(q *queue.Input, stream string, from, to uint64) {
	batch := make([]element.Element, 0, to-from+1)
	for s := from; s <= to; s++ {
		batch = append(batch, element.Element{ID: s, Seq: s, Payload: int64(s)})
	}
	q.Push(stream, batch)
}

func newTestPE(src Source, sink Sink) *PE {
	return New(Config{
		Logic:     &CounterLogic{},
		BatchSize: 8,
		Source:    src,
		Sink:      sink,
	})
}

func TestPEProcessesInput(t *testing.T) {
	in := queue.NewInput("s")
	sink := &memSink{}
	p := newTestPE(in, sink)
	p.Start()
	defer p.Stop()

	pushSeq(in, "s", 1, 20)
	out := sink.waitFor(t, 20)
	for i, e := range out {
		if e.ID != uint64(i+1) || e.Payload != int64(i+1)+1 {
			t.Fatalf("output %d = %+v", i, e)
		}
	}
	if p.Processed() != 20 {
		t.Fatalf("processed %d", p.Processed())
	}
}

func TestPETracksConsumedPositions(t *testing.T) {
	in := queue.NewInput("a", "b")
	sink := &memSink{}
	p := newTestPE(in, sink)
	p.Start()
	defer p.Stop()

	pushSeq(in, "a", 1, 5)
	pushSeq(in, "b", 1, 3)
	sink.waitFor(t, 8)
	pos := p.ConsumedPositions()
	if pos["a"] != 5 || pos["b"] != 3 {
		t.Fatalf("consumed %v", pos)
	}
}

func TestPEPauseQuiescesAndResumes(t *testing.T) {
	in := queue.NewInput("s")
	sink := &memSink{}
	p := newTestPE(in, sink)
	p.Start()
	defer p.Stop()

	pushSeq(in, "s", 1, 8)
	sink.waitFor(t, 8)

	p.Pause()
	pushSeq(in, "s", 9, 16)
	time.Sleep(20 * time.Millisecond)
	if sink.len() != 8 {
		t.Fatalf("paused PE processed: %d outputs", sink.len())
	}
	p.Resume()
	sink.waitFor(t, 16)
}

func TestPEPauseWhileBlockedOnEmptySource(t *testing.T) {
	in := queue.NewInput("s")
	p := newTestPE(in, &memSink{})
	p.Start()
	defer p.Stop()
	time.Sleep(5 * time.Millisecond) // let it block on Ready

	done := make(chan struct{})
	go func() {
		p.Pause()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Pause deadlocked on idle PE")
	}
	p.Resume()
}

func TestPEPauseBeforeStartParksImmediately(t *testing.T) {
	in := queue.NewInput("s")
	sink := &memSink{}
	p := newTestPE(in, sink)
	p.Pause() // the pre-deployed standby pattern
	p.Start()
	defer p.Stop()

	pushSeq(in, "s", 1, 4)
	time.Sleep(20 * time.Millisecond)
	if sink.len() != 0 {
		t.Fatal("suspended PE processed data")
	}
	p.Resume()
	sink.waitFor(t, 4)
}

func TestPEStopWhileBlocked(t *testing.T) {
	in := queue.NewInput("s")
	p := newTestPE(in, &memSink{})
	p.Start()
	done := make(chan struct{})
	go func() {
		p.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop deadlocked")
	}
}

func TestPEStopWithoutStart(t *testing.T) {
	p := newTestPE(queue.NewInput("s"), &memSink{})
	p.Stop() // must not hang
}

func TestPEDoubleStartPanics(t *testing.T) {
	p := newTestPE(queue.NewInput("s"), &memSink{})
	p.Start()
	defer p.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double Start")
		}
	}()
	p.Start()
}

func TestSetConsumedPositions(t *testing.T) {
	p := newTestPE(queue.NewInput("s"), &memSink{})
	p.SetConsumedPositions(map[string]uint64{"s": 42})
	if p.ConsumedPositions()["s"] != 42 {
		t.Fatal("positions not set")
	}
}

func TestPipeFIFO(t *testing.T) {
	p := NewPipe()
	p.Push([]element.Element{{Seq: 1}, {Seq: 2}})
	p.Push([]element.Element{{Seq: 3}})
	got := p.TryPop(10)
	if len(got) != 3 || got[0].Elem.Seq != 1 || got[2].Elem.Seq != 3 {
		t.Fatalf("got %+v", got)
	}
	if got[0].Stream != "" {
		t.Fatal("pipe entries must carry no stream")
	}
}

func TestPipeSnapshotRestore(t *testing.T) {
	p := NewPipe()
	p.Push([]element.Element{{Seq: 1}, {Seq: 2}})
	snap := p.Snapshot()
	p2 := NewPipe()
	p2.Restore(snap)
	if p2.Len() != 2 {
		t.Fatalf("restored len %d", p2.Len())
	}
	select {
	case <-p2.Ready():
	default:
		t.Fatal("restore must signal ready")
	}
}

func TestCounterLogicSnapshotRoundTrip(t *testing.T) {
	l := &CounterLogic{Pad: 3}
	emit := func(element.Element) {}
	for i := 0; i < 10; i++ {
		l.Process(element.Element{ID: uint64(i), Payload: int64(i)}, emit)
	}
	snap := l.Snapshot()
	if len(snap) != 16+3*element.EncodedSize {
		t.Fatalf("snapshot size %d", len(snap))
	}
	l2 := &CounterLogic{Pad: 3}
	if err := l2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if l2.Count() != l.Count() || l2.Sum() != l.Sum() {
		t.Fatal("state mismatch after restore")
	}
}

// TestCounterLogicRecycledSnapshot: a recycled buffer changes where a
// snapshot lives, never what it holds — stale bytes are overwritten (an
// untouched pad reads as zeros), a too-small spare is ignored, and a spare
// is consumed by exactly one Snapshot.
func TestCounterLogicRecycledSnapshot(t *testing.T) {
	emit := func(element.Element) {}
	dirty := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	for _, hot := range []int{0, 4} {
		l := &CounterLogic{Pad: 3, HotSlots: hot}
		for i := 1; i <= 10; i++ {
			l.Process(element.Element{ID: uint64(i), Payload: int64(i)}, emit)
		}
		want := l.Snapshot()

		spare := dirty(len(want) + 8)
		l.RecycleSnapshot(spare)
		got := l.Snapshot()
		if &got[0] != &spare[0] {
			t.Fatalf("HotSlots %d: Snapshot ignored a spare of sufficient capacity", hot)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("HotSlots %d: recycled snapshot %x, want %x", hot, got, want)
		}
		if next := l.Snapshot(); &next[0] == &spare[0] {
			t.Fatalf("HotSlots %d: one spare served two snapshots", hot)
		}

		small := dirty(len(want) - 1)
		l.RecycleSnapshot(small)
		if got := l.Snapshot(); &got[0] == &small[0] || !bytes.Equal(got, want) {
			t.Fatalf("HotSlots %d: Snapshot used a spare that is too small", hot)
		}
	}
}

func TestCounterLogicRestoreShort(t *testing.T) {
	if err := (&CounterLogic{}).Restore(nil); err == nil {
		t.Fatal("want error")
	}
}

// TestCounterLogicRestoreEquivalenceProperty: restoring a snapshot and
// continuing produces the same state as never failing — the determinism
// recovery correctness rests on.
func TestCounterLogicRestoreEquivalenceProperty(t *testing.T) {
	f := func(payloads []int64, cut uint8) bool {
		emit := func(element.Element) {}
		ref := &CounterLogic{}
		for i, p := range payloads {
			ref.Process(element.Element{ID: uint64(i), Payload: p}, emit)
		}

		split := 0
		if len(payloads) > 0 {
			split = int(cut) % (len(payloads) + 1)
		}
		a := &CounterLogic{}
		for i := 0; i < split; i++ {
			a.Process(element.Element{ID: uint64(i), Payload: payloads[i]}, emit)
		}
		b := &CounterLogic{}
		if err := b.Restore(a.Snapshot()); err != nil {
			return false
		}
		for i := split; i < len(payloads); i++ {
			b.Process(element.Element{ID: uint64(i), Payload: payloads[i]}, emit)
		}
		return b.Count() == ref.Count() && b.Sum() == ref.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterLogicDropsMultiples(t *testing.T) {
	l := &FilterLogic{Modulus: 3}
	var out []element.Element
	emit := func(e element.Element) { out = append(out, e) }
	for p := int64(1); p <= 9; p++ {
		l.Process(element.Element{ID: uint64(p), Payload: p}, emit)
	}
	if len(out) != 6 {
		t.Fatalf("passed %d, want 6", len(out))
	}
}

func TestSplitLogicFanout(t *testing.T) {
	l := &SplitLogic{Fanout: 3}
	var out []element.Element
	l.Process(element.Element{ID: 7, Payload: 2}, func(e element.Element) { out = append(out, e) })
	if len(out) != 3 {
		t.Fatalf("fanout %d", len(out))
	}
	seen := map[uint64]bool{}
	for _, e := range out {
		if seen[e.ID] {
			t.Fatal("duplicate derived ID")
		}
		seen[e.ID] = true
	}
}

func TestWindowSumLogic(t *testing.T) {
	l := &WindowSumLogic{Window: 4}
	var out []element.Element
	emit := func(e element.Element) { out = append(out, e) }
	for p := int64(1); p <= 8; p++ {
		l.Process(element.Element{ID: uint64(p), Payload: p}, emit)
	}
	if len(out) != 2 || out[0].Payload != 10 || out[1].Payload != 26 {
		t.Fatalf("windows %+v", out)
	}
}

func TestWindowSumSnapshotRoundTrip(t *testing.T) {
	l := &WindowSumLogic{Window: 4}
	emit := func(element.Element) {}
	l.Process(element.Element{ID: 1, Payload: 5}, emit)
	l.Process(element.Element{ID: 2, Payload: 6}, emit)
	l2 := &WindowSumLogic{Window: 4}
	if err := l2.Restore(l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var out []element.Element
	emitOut := func(e element.Element) { out = append(out, e) }
	l2.Process(element.Element{ID: 3, Payload: 7}, emitOut)
	l2.Process(element.Element{ID: 4, Payload: 8}, emitOut)
	if len(out) != 1 || out[0].Payload != 26 {
		t.Fatalf("restored window emitted %+v", out)
	}
}
