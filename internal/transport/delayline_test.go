package transport

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// seqs lists the message sequence numbers of entries, in release order.
func seqs(entries []delayEntry) []uint64 {
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = e.msg.Seq
	}
	return out
}

// TestDelayLineNeverEarly: nothing is released a nanosecond before its
// deadline, and everything due is released at it.
func TestDelayLineNeverEarly(t *testing.T) {
	var l delayLine
	const at = int64(1_000_000)
	for i := 1; i <= 3; i++ {
		l.add(at, "s", "r", Message{Seq: uint64(i)})
	}
	l.add(at+1, "s", "r", Message{Seq: 4})
	got, next := l.take(at-1, nil)
	if len(got) != 0 {
		t.Fatalf("released %v at deadline-1ns", seqs(got))
	}
	if next != at {
		t.Fatalf("next deadline %d, want %d", next, at)
	}
	got, next = l.take(at, nil)
	if fmt.Sprint(seqs(got)) != "[1 2 3]" {
		t.Fatalf("released %v at the deadline, want [1 2 3]", seqs(got))
	}
	if next != at+1 {
		t.Fatalf("next deadline %d, want %d", next, at+1)
	}
	got, next = l.take(at+1, nil)
	if fmt.Sprint(seqs(got)) != "[4]" || next != math.MaxInt64 {
		t.Fatalf("final take released %v, next %d", seqs(got), next)
	}
}

// TestDelayLineStragglerRaisedToTail models a sender that read the clock,
// stalled, and appended behind a later deadline: its entry is raised to the
// tail's deadline, so it comes out after the tail and never before its
// own deadline.
func TestDelayLineStragglerRaisedToTail(t *testing.T) {
	var l delayLine
	l.add(100, "a", "r", Message{Seq: 1})
	l.add(50, "b", "r", Message{Seq: 2}) // straggler
	if got, next := l.take(99, nil); len(got) != 0 || next != 100 {
		t.Fatalf("take(99) released %v, next %d; want nothing, next 100", seqs(got), next)
	}
	got, _ := l.take(100, nil)
	if fmt.Sprint(seqs(got)) != "[1 2]" {
		t.Fatalf("released %v, want the tail then the straggler [1 2]", seqs(got))
	}
	if got[1].at != 100 {
		t.Fatalf("straggler kept deadline %d, want it raised to the tail's 100", got[1].at)
	}
	// On an empty line a straggler keeps its own deadline.
	l.add(80, "b", "r", Message{Seq: 3})
	if got, next := l.take(79, nil); len(got) != 0 || next != 80 {
		t.Fatalf("take(79) released %v, next %d; want nothing, next 80", seqs(got), next)
	}
	if got, _ := l.take(80, nil); fmt.Sprint(seqs(got)) != "[3]" {
		t.Fatalf("take(80) released %v, want [3]", seqs(got))
	}
}

// TestDelayLineLaggingCollectorReleasesInOrder: two senders interleave
// sends while the collector lags 3 × Latency; one take releases both
// senders' entries in deadline order, each sender's in send order.
func TestDelayLineLaggingCollectorReleasesInOrder(t *testing.T) {
	const lat = int64(200 * time.Microsecond)
	var l delayLine
	now := int64(1 << 40)
	for i := 1; i <= 20; i++ {
		from := NodeID("a")
		if i%2 == 0 {
			from = "b"
		}
		l.add(now+lat, from, "r", Message{Seq: uint64(i)})
		now += int64(7 * time.Microsecond)
	}
	got, next := l.take(now+3*lat, nil)
	if len(got) != 20 || next != math.MaxInt64 {
		t.Fatalf("one lagging take released %d of 20, next %d", len(got), next)
	}
	for i, e := range got {
		if e.msg.Seq != uint64(i+1) {
			t.Fatalf("position %d holds seq %d: not in deadline order", i, e.msg.Seq)
		}
		if i > 0 && e.at < got[i-1].at {
			t.Fatalf("deadline %d released after %d", e.at, got[i-1].at)
		}
	}
}

// TestDelayLineStressFIFO hammers the bare line: 8 senders adding as fast
// as they can while one collector drains, checking per-sender release
// order and never-early below Mem's mailboxes. Under -race the collector
// is starved for many Latencies at a time.
func TestDelayLineStressFIFO(t *testing.T) {
	const lat = 300 * time.Microsecond
	var l delayLine
	const senders = 8
	const per = 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := NodeID(fmt.Sprintf("src%d", s))
			for i := 1; i <= per; i++ {
				l.add(time.Now().Add(lat).UnixNano(), from, "dst", Message{Seq: uint64(i)})
			}
		}(s)
	}
	last := map[NodeID]uint64{}
	total := 0
	var batch []delayEntry
	deadline := time.Now().Add(10 * time.Second)
	for total < senders*per {
		if time.Now().After(deadline) {
			t.Fatalf("released %d of %d", total, senders*per)
		}
		now := time.Now().UnixNano()
		batch, _ = l.take(now, batch[:0])
		for _, e := range batch {
			if e.at > now {
				t.Fatalf("entry due at %d released at %d", e.at, now)
			}
			if e.msg.Seq <= last[e.from] {
				t.Errorf("sender %s: seq %d after seq %d", e.from, e.msg.Seq, last[e.from])
			}
			last[e.from] = e.msg.Seq
			total++
		}
		time.Sleep(2 * time.Microsecond)
	}
	wg.Wait()
}

// TestDelayLineWakeHandshake: a take that leaves the line empty makes the
// next add report a wake-up, and only that add; a take that leaves entries
// behind makes none.
func TestDelayLineWakeHandshake(t *testing.T) {
	var l delayLine
	if _, next := l.take(0, nil); next != math.MaxInt64 {
		t.Fatalf("empty line reports next %d", next)
	}
	if !l.add(10, "s", "r", Message{Seq: 1}) {
		t.Fatal("first add after an empty take did not report a wake-up")
	}
	if l.add(20, "s", "r", Message{Seq: 2}) {
		t.Fatal("second add repeated the wake-up")
	}
	if _, next := l.take(10, nil); next != 20 {
		t.Fatalf("next %d after a partial take, want 20", next)
	}
	if l.add(30, "s", "r", Message{Seq: 3}) {
		t.Fatal("add to a non-empty line reported a wake-up")
	}
	if got, _ := l.take(30, nil); len(got) != 2 {
		t.Fatalf("take released %d, want 2", len(got))
	}
	if !l.add(40, "s", "r", Message{Seq: 4}) {
		t.Fatal("add after the line was emptied did not report a wake-up")
	}
}
