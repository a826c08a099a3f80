package transport

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// wheelAt builds a deadline landing exactly on tick index tick of w.
func wheelAt(w *timingWheel, tick int64) time.Time {
	return time.Unix(0, tick*w.tickNs)
}

// collectAll copies every batch released at nowTick into one slice,
// preserving release order.
func collectAll(w *timingWheel, nowTick int64) []wheelEntry {
	var out []wheelEntry
	w.collect(time.Unix(0, nowTick*w.tickNs), func(entries []wheelEntry) {
		out = append(out, entries...)
	})
	return out
}

func TestWheelReleasesInTickOrder(t *testing.T) {
	w := newTimingWheel(64 * time.Microsecond) // tick = 1µs
	// Out-of-order adds across several ticks.
	for _, tick := range []int64{30, 10, 20, 10, 30, 20} {
		w.add(wheelAt(w, tick), 0, NodeID("s"), NodeID("r"), Message{Seq: uint64(tick)})
	}
	got := collectAll(w, 40)
	if len(got) != 6 {
		t.Fatalf("collected %d entries", len(got))
	}
	want := []uint64{10, 10, 20, 20, 30, 30}
	for i, e := range got {
		if e.msg.Seq != want[i] {
			t.Fatalf("entry %d matured with seq %d, want %d", i, e.msg.Seq, want[i])
		}
	}
}

// TestWheelWrapAroundOrdering forces a pass whose due ticks straddle the
// wheel's wrap point, where bucket-index order disagrees with tick order;
// collect must still release in tick order.
func TestWheelWrapAroundOrdering(t *testing.T) {
	w := newTimingWheel(64 * time.Microsecond)
	// Ticks just below and above a multiple of wheelBuckets: bucket indices
	// wrap (e.g. 254, 255, 0, 1), so index order would invert tick order.
	base := int64(wheelBuckets * 3)
	ticks := []int64{base - 2, base - 1, base, base + 1}
	for i, tick := range ticks {
		w.add(wheelAt(w, tick), 0, NodeID("s"), NodeID("r"), Message{Seq: uint64(i + 1)})
	}
	got := collectAll(w, base+10)
	if len(got) != len(ticks) {
		t.Fatalf("collected %d entries, want %d", len(got), len(ticks))
	}
	for i, e := range got {
		if e.msg.Seq != uint64(i+1) {
			t.Fatalf("wrap pass released seq %d at position %d", e.msg.Seq, i)
		}
	}
}

// TestWheelKeepsImmatureRotation checks the partition path: two entries a
// full rotation apart share a bucket, and only the mature one is released.
func TestWheelKeepsImmatureRotation(t *testing.T) {
	w := newTimingWheel(64 * time.Microsecond)
	near := int64(10)
	far := near + wheelBuckets // same bucket index, one rotation later
	w.add(wheelAt(w, near), 0, NodeID("s"), NodeID("r"), Message{Seq: 1})
	w.add(wheelAt(w, far), 0, NodeID("s"), NodeID("r"), Message{Seq: 2})

	var got []wheelEntry
	copyOut := func(entries []wheelEntry) { got = append(got, entries...) }
	next := w.collect(wheelAt(w, near+5), copyOut)
	if len(got) != 1 || got[0].msg.Seq != 1 {
		t.Fatalf("first pass released %d entries (%+v)", len(got), got)
	}
	if next != far {
		t.Fatalf("next pending tick %d, want %d", next, far)
	}
	got = got[:0]
	next = w.collect(wheelAt(w, far), copyOut)
	if len(got) != 1 || got[0].msg.Seq != 2 {
		t.Fatalf("second pass released %d entries", len(got))
	}
	if next != math.MaxInt64 {
		t.Fatalf("wheel not empty after final pass: next=%d", next)
	}
}

// TestWheelDeepLagReleasesInTickOrder covers the rare fallback: the
// collector lags by more than a full rotation, so one pass releases mature
// ticks over a rotation apart, which collect must sweep as ascending
// rotation-sized bands to keep tick order.
func TestWheelDeepLagReleasesInTickOrder(t *testing.T) {
	w := newTimingWheel(64 * time.Microsecond)
	// Ticks over a rotation apart: a single walk anchored anywhere would
	// visit 500's bucket before 10's; the band sweep must release 10 first.
	w.add(wheelAt(w, 500), 1, NodeID("a"), NodeID("r"), Message{Seq: 2})
	w.add(wheelAt(w, 10), 2, NodeID("b"), NodeID("r"), Message{Seq: 1})
	got := collectAll(w, 600)
	if len(got) != 2 {
		t.Fatalf("collected %d entries", len(got))
	}
	if got[0].msg.Seq != 1 || got[1].msg.Seq != 2 {
		t.Fatalf("deep-lag pass out of tick order: %d then %d", got[0].msg.Seq, got[1].msg.Seq)
	}
}

// TestWheelStragglerBehindLastTick models a sender that read the clock,
// stalled, and appended only after the collector's walk had passed its
// tick. The next pass must release it immediately (and before later
// ticks), not a rotation later.
func TestWheelStragglerBehindLastTick(t *testing.T) {
	w := newTimingWheel(64 * time.Microsecond)
	if got := collectAll(w, 50); len(got) != 0 { // advance lastTick to 50
		t.Fatalf("empty wheel released %d entries", len(got))
	}
	w.add(wheelAt(w, 10), 0, NodeID("s"), NodeID("r"), Message{Seq: 1}) // behind lastTick
	w.add(wheelAt(w, 55), 0, NodeID("s"), NodeID("r"), Message{Seq: 2})
	got := collectAll(w, 60)
	if len(got) != 2 {
		t.Fatalf("collected %d entries, want 2", len(got))
	}
	if got[0].msg.Seq != 1 || got[1].msg.Seq != 2 {
		t.Fatalf("straggler released out of order: seq %d then %d", got[0].msg.Seq, got[1].msg.Seq)
	}
}

func TestWheelNeverEarly(t *testing.T) {
	w := newTimingWheel(time.Millisecond)
	deadline := time.Now().Add(time.Millisecond)
	w.add(deadline, 0, NodeID("s"), NodeID("r"), Message{Seq: 1})
	matureAt := w.timeAt(w.tickFor(deadline))
	if matureAt.Before(deadline) {
		t.Fatalf("tick boundary %v before deadline %v", matureAt, deadline)
	}
	early := 0
	w.collect(deadline.Add(-time.Microsecond), func(entries []wheelEntry) { early += len(entries) })
	if early != 0 {
		t.Fatalf("entry released %d before its deadline", early)
	}
}

// TestWheelStressFIFO hammers the bare wheel: 8 senders adding as fast as
// they can while one collector drains, checking per-sender release order at
// the wheel layer (below Mem's mailboxes). Under -race the collector gets
// starved for whole rotations, which is what exercises the straggler
// restart and the catch-up path's anchored scan.
func TestWheelStressFIFO(t *testing.T) {
	w := newTimingWheel(300 * time.Microsecond)
	const senders = 8
	const per = 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := NodeID(fmt.Sprintf("src%d", s))
			for i := 1; i <= per; i++ {
				w.add(time.Now().Add(300*time.Microsecond), s, from, "dst", Message{Seq: uint64(i)})
			}
		}(s)
	}
	last := map[NodeID]uint64{}
	lastTicks := map[NodeID]int64{}
	total := 0
	check := func(entries []wheelEntry) {
		for _, e := range entries {
			if e.msg.Seq <= last[e.from] {
				t.Errorf("sender %s: seq %d (tick %d) after seq %d (tick %d)",
					e.from, e.msg.Seq, e.tick, last[e.from], lastTicks[e.from])
			}
			last[e.from] = e.msg.Seq
			lastTicks[e.from] = e.tick
			total++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for total < senders*per {
		if time.Now().After(deadline) {
			t.Fatalf("released %d of %d", total, senders*per)
		}
		w.collect(time.Now(), check)
		time.Sleep(2 * time.Microsecond)
	}
	wg.Wait()
}

// TestLatencyFIFOManySenders is the per-pair FIFO contract under the
// timing wheel with concurrent senders, the workload the wheel shards.
// The burst case keeps the wheel full; the paced case lets it run empty
// again and again while senders are still coming, which is where a
// scheduler that parks on an empty wheel and ignores sends while it waits
// for a tick could lose a wake-up (seen as a delivery that never comes).
// Run with -race in CI.
func TestLatencyFIFOManySenders(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latency time.Duration
		pause   time.Duration // upper bound of a sender's pause every 10 sends
	}{
		{"burst-300us", 300 * time.Microsecond, 0},
		{"paced-200us", 200 * time.Microsecond, 600 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testLatencyFIFOManySenders(t, tc.latency, tc.pause)
		})
	}
}

func testLatencyFIFOManySenders(t *testing.T, latency, pause time.Duration) {
	net := NewMem(MemConfig{Latency: latency})
	defer net.Close()

	type rec struct {
		mu   sync.Mutex
		last map[NodeID]uint64
		n    int
	}
	r := rec{last: map[NodeID]uint64{}}
	if _, err := net.Register("dst", func(from NodeID, msg Message) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if msg.Seq <= r.last[from] {
			t.Errorf("sender %s: seq %d after %d", from, msg.Seq, r.last[from])
		}
		r.last[from] = msg.Seq
		r.n++
	}); err != nil {
		t.Fatal(err)
	}

	const senders = 8
	const perSender = 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Register(NodeID(fmt.Sprintf("src%d", s)), func(NodeID, Message) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 1; i <= perSender; i++ {
				_ = ep.Send("dst", Message{Kind: KindAck, Seq: uint64(i)})
				if pause > 0 && i%10 == 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(pause))))
				}
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		n := r.n
		r.mu.Unlock()
		if n == senders*perSender {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", n, senders*perSender)
		}
		time.Sleep(time.Millisecond)
	}
}
