package transport

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The in-memory network's latency scheduler is a timing wheel. The seed
// implementation pushed one entry per message into a container/heap behind a
// single mutex — an O(log n) critical section every sender serialized on,
// and one the drainer also held while popping. The wheel replaces that with
// per-tick buckets, each sharded into per-sender lanes: a sender quantizes
// its delivery deadline to a tick and appends an entry to the tail of its
// own lane in that tick's bucket (O(1), and — since every sender targets
// the same "now + Latency" tick — concurrent senders shard across lane
// locks instead of piling onto one), while the scheduler drains buckets it
// no longer shares with senders.
//
// Entries are stored by value in per-lane slabs, and a fully mature lane is
// handed to the scheduler as a whole batch — no per-entry allocation,
// pooling, or copying on the common path. Consumed slabs are scrubbed and
// parked back on their lane as a spare for the next fill, so steady state
// runs allocation-free no matter how deep the backlog grows.
//
// Invariants the wheel maintains:
//
//   - Never early: an entry matures at the first tick boundary at or after
//     its deadline (tickFor rounds up), so the wheel adds less than one
//     tick to Latency. What a hop takes beyond that is how promptly the
//     scheduler's wait ends (Mem.schedule): on a 200 µs link about 0.23 ms
//     where it waits in the kernel (Linux, wall clock), about 1.1 ms where
//     it waits on a runtime timer in an otherwise idle process.
//   - Per-(sender,receiver) FIFO: a sender's deadlines are non-decreasing,
//     so its entries land in non-decreasing ticks; a sender always appends
//     to the same lane index, so equal ticks keep append order, and
//     collect always releases distinct ticks in ascending order — the hot
//     path walks elapsed ticks' buckets directly, and the deep-lag path
//     sweeps one rotation-sized band at a time, each band anchored at the
//     earliest pending tick.
//   - No missed entries: collect's walk covers every tick from the
//     earliest published pending tick (tracked by the `published` atomic
//     min, so a sender that stalls between reading the clock and
//     appending cannot strand an entry behind the walk) through nowTick,
//     so an entry is released on the first pass after its tick regardless
//     of how far the scheduler lags. The scheduler does not cut a wait
//     short for a send, so the first pass after a stalled sender's append
//     is the one at the tick already being waited for, at most one
//     Latency away. A bucket can simultaneously hold entries for ticks a
//     full rotation apart; collect partitions and keeps the ones beyond
//     the band being drained.
const (
	// wheelBuckets is the wheel size; a power of two so the bucket index is
	// a mask. Entries mature within one Latency of being added, so pending
	// ticks span far fewer than wheelBuckets in steady state and collisions
	// between rotations are rare.
	wheelBuckets = 256
	// wheelTickDiv sets tick granularity as a fraction of the simulated
	// latency: the tick is Latency/wheelTickDiv rounded up to a power of
	// two — so quantizing a deadline is a shift, not a 64-bit division, on
	// every add — and delivery is quantized to at most one tick late.
	wheelTickDiv = 64
	// minWheelTick bounds the tick from below so sub-microsecond latencies
	// do not create a degenerate always-hot wheel.
	minWheelTick = time.Microsecond
	// wheelLanes shards each bucket by sender. A sender keeps one lane for
	// its lifetime (assigned round-robin at registration), which preserves
	// per-pair append order inside a bucket while spreading concurrent
	// senders over independent locks.
	wheelLanes = 8
	// wheelSlabCap is the initial capacity of a lane slab; append growth
	// takes over for deeper backlogs, and a grown slab keeps its size when
	// recycled.
	wheelSlabCap = 64
)

// wheelEntry is one pending delivery, stored by value in its lane's slab.
type wheelEntry struct {
	tick int64 // absolute tick index the entry matures at
	from NodeID
	to   NodeID
	msg  Message
}

// wheelLane is one sender shard of a bucket. entries[head:] is the live
// FIFO, kept sorted by tick: a sender's ticks are non-decreasing, so adds
// append at the tail; only a sender that stalled between reading the clock
// and appending sifts back a few slots (stably, staying after equal
// ticks). Sortedness is what lets drain release a prefix — or hand off the
// whole slab — without ever re-touching immature entries, no matter how
// deep the scheduler's backlog. spare is a recycled slab parked by the
// scheduler for the lane's next fill.
type wheelLane struct {
	mu      sync.Mutex
	head    int
	entries []wheelEntry
	spare   []wheelEntry
}

// wheelSeg is one whole-slab handoff staged by drainBucket: the live
// entries are slab[start:], in delivery order, and lane remembers where to
// recycle the slab once emitted.
type wheelSeg struct {
	lane  *wheelLane
	slab  []wheelEntry
	start int
}

// wheelBucket holds the entries of every tick congruent to its index.
type wheelBucket struct {
	lanes [wheelLanes]wheelLane
	// minTick is the smallest tick among entries across all lanes,
	// math.MaxInt64 when the bucket is empty. Senders lower it with a CAS
	// loop after appending; drain recomputes and stores it while holding
	// every lane lock (so no append can slip between the recompute and the
	// store). Read lock-free by collect's scan.
	minTick atomic.Int64
}

// timingWheel schedules pending deliveries for the latency simulation.
type timingWheel struct {
	tickNs    int64
	tickShift uint // tickNs == 1 << tickShift
	// lastTick is the tick through which collect has fully drained the
	// wheel; lastNext is the previous pass's post-drain earliest pending
	// tick. Both are owned by the single collector; senders never touch
	// them.
	lastTick int64
	lastNext int64
	// published is the min tick CAS-published by senders since the last
	// collect pass swapped it out. Together with lastNext it bounds the
	// earliest pending tick without rescanning every bucket per pass.
	published atomic.Int64
	// scratch is the collector-owned copy target for partially mature
	// lanes, reused across passes.
	scratch []wheelEntry
	buckets [wheelBuckets]wheelBucket
}

func newTimingWheel(latency time.Duration) *timingWheel {
	tick := latency / wheelTickDiv
	if tick < minWheelTick {
		tick = minWheelTick
	}
	shift := uint(0)
	for int64(1)<<shift < int64(tick) {
		shift++
	}
	w := &timingWheel{tickNs: 1 << shift, tickShift: shift, lastNext: math.MaxInt64}
	w.published.Store(math.MaxInt64)
	for i := range w.buckets {
		w.buckets[i].minTick.Store(math.MaxInt64)
	}
	return w
}

// tickFor returns the first tick boundary at or after deadline.
func (w *timingWheel) tickFor(deadline time.Time) int64 {
	ns := deadline.UnixNano()
	return (ns + w.tickNs - 1) >> w.tickShift
}

// timeAt returns the wall time of a tick boundary.
func (w *timingWheel) timeAt(tick int64) time.Time {
	return time.Unix(0, tick<<w.tickShift)
}

// add enqueues one delivery maturing at deadline. lane must be the
// sender's stable lane index: per-pair FIFO relies on one sender always
// appending to the same lane.
func (w *timingWheel) add(deadline time.Time, lane int, from, to NodeID, msg Message) {
	tick := w.tickFor(deadline)
	b := &w.buckets[tick&(wheelBuckets-1)]
	ln := &b.lanes[lane&(wheelLanes-1)]
	ln.mu.Lock()
	if ln.entries == nil {
		if ln.spare != nil {
			ln.entries, ln.spare = ln.spare, nil
		} else {
			ln.entries = make([]wheelEntry, 0, wheelSlabCap)
		}
	} else if ln.head > 0 && len(ln.entries) == cap(ln.entries) {
		// Reclaim the drained prefix before growing the backing array.
		n := copy(ln.entries, ln.entries[ln.head:])
		for j := n; j < len(ln.entries); j++ {
			ln.entries[j] = wheelEntry{}
		}
		ln.entries = ln.entries[:n]
		ln.head = 0
	}
	if n := len(ln.entries); n < cap(ln.entries) {
		// Write the entry in place: an append of a composite literal builds
		// a 144-byte temporary and copies it, twice the stores for nothing.
		ln.entries = ln.entries[:n+1]
		e := &ln.entries[n]
		e.tick, e.from, e.to, e.msg = tick, from, to, msg
	} else {
		ln.entries = append(ln.entries, wheelEntry{tick: tick, from: from, to: to, msg: msg})
	}
	for i := len(ln.entries) - 1; i > ln.head && ln.entries[i-1].tick > tick; i-- {
		ln.entries[i], ln.entries[i-1] = ln.entries[i-1], ln.entries[i]
	}
	ln.mu.Unlock()
	for {
		cur := b.minTick.Load()
		if tick >= cur || b.minTick.CompareAndSwap(cur, tick) {
			break
		}
	}
	for {
		cur := w.published.Load()
		if tick >= cur || w.published.CompareAndSwap(cur, tick) {
			break
		}
	}
}

// addedSinceCollect reports whether a sender has published an entry since
// the last collect pass began; the scheduler asks before it parks on an
// empty wheel.
func (w *timingWheel) addedSinceCollect() bool {
	return w.published.Load() != math.MaxInt64
}

// drainBucket releases every entry of b mature at nowTick. Because lanes
// are tick-sorted, the mature entries are exactly a prefix of each lane: a
// fully mature lane is handed off as its whole slab (O(1), no copying),
// and a partially mature one copies its prefix into the collector's
// scratch buffer — immature entries are never re-touched, which is what
// keeps a deeply backlogged wheel from re-partitioning its whole backlog
// every pass. All lane locks are held until the minTick store so a
// concurrent add cannot publish a lower minTick that the store would then
// clobber; emit runs after every lock is dropped, so a handler that sends
// again cannot deadlock against its own lane. Each emitted batch is valid
// only for the duration of the callback, and its slab is scrubbed and
// recycled immediately after, so a pass keeps at most one bucket's worth
// of segments alive — draining stays allocation-free at any backlog depth.
func (w *timingWheel) drainBucket(b *wheelBucket, nowTick int64, emit func([]wheelEntry)) {
	var fulls [wheelLanes]wheelSeg
	nFull := 0
	var spans [wheelLanes][2]int
	nSpan := 0
	w.scratch = w.scratch[:0]
	for i := range b.lanes {
		b.lanes[i].mu.Lock()
	}
	mt := int64(math.MaxInt64)
	for i := range b.lanes {
		ln := &b.lanes[i]
		n := len(ln.entries)
		if ln.head >= n {
			continue
		}
		if ln.entries[n-1].tick <= nowTick {
			// Whole lane mature: hand the slab to the scheduler.
			fulls[nFull] = wheelSeg{lane: ln, slab: ln.entries, start: ln.head}
			nFull++
			ln.entries, ln.head = nil, 0
			continue
		}
		k := ln.head
		for k < n && ln.entries[k].tick <= nowTick {
			k++
		}
		if k > ln.head {
			from := len(w.scratch)
			w.scratch = append(w.scratch, ln.entries[ln.head:k]...)
			for j := ln.head; j < k; j++ {
				ln.entries[j] = wheelEntry{} // do not pin released payloads
			}
			ln.head = k
			spans[nSpan] = [2]int{from, len(w.scratch)}
			nSpan++
		}
		if t := ln.entries[ln.head].tick; t < mt {
			mt = t
		}
	}
	b.minTick.Store(mt)
	for i := range b.lanes {
		b.lanes[i].mu.Unlock()
	}
	// One drainBucket call releases entries of a single tick (lanes hold at
	// most one in-threshold tick per bucket visit), so cross-lane emission
	// order cannot reorder any sender's stream.
	for i := 0; i < nFull; i++ {
		f := &fulls[i]
		emit(f.slab[f.start:])
		w.recycleSlab(f.lane, f.slab, f.start)
		fulls[i] = wheelSeg{}
	}
	for i := 0; i < nSpan; i++ {
		emit(w.scratch[spans[i][0]:spans[i][1]])
	}
	for j := range w.scratch {
		w.scratch[j] = wheelEntry{} // scrub scratch so it does not pin payloads
	}
}

// recycleSlab scrubs a consumed slab and parks it as its lane's spare for
// the next fill; a slab arriving while the spare slot is taken is left to
// the garbage collector.
func (w *timingWheel) recycleSlab(ln *wheelLane, slab []wheelEntry, start int) {
	for j := start; j < len(slab); j++ {
		slab[j] = wheelEntry{}
	}
	sl := slab[:0]
	ln.mu.Lock()
	if ln.spare == nil {
		ln.spare = sl
	}
	ln.mu.Unlock()
}

// collect releases every entry mature at now through emit, in ascending
// tick order (batched per lane), and returns the earliest still-pending
// tick (math.MaxInt64 if the wheel is empty). Only the scheduler calls
// collect. Emitted batches are valid only during the callback; a consumer
// that retains entries must copy them.
//
// The hot path — the scheduler lags by less than a rotation — walks each
// elapsed tick's bucket directly, locking only buckets whose ticks
// actually came due. When the gap reaches a full rotation, collect sweeps
// rotation-sized tick bands instead, each anchored at the earliest pending
// tick, ascending until nowTick is covered; band order equals tick order,
// so no pass ever needs a sort.
func (w *timingWheel) collect(now time.Time, emit func([]wheelEntry)) int64 {
	nowTick := now.UnixNano() >> w.tickShift
	earliest := w.published.Swap(math.MaxInt64)
	if w.lastNext < earliest {
		earliest = w.lastNext
	}
	for {
		// A sender stalled between reading the clock and publishing can
		// leave an entry at or before lastTick; restart the walk there.
		start := w.lastTick
		if earliest <= start {
			start = earliest - 1
		}
		if nowTick <= start {
			break
		}
		if nowTick-start < wheelBuckets {
			for t := start + 1; t <= nowTick; t++ {
				b := &w.buckets[t&(wheelBuckets-1)]
				if b.minTick.Load() <= nowTick {
					w.drainBucket(b, nowTick, emit)
				}
			}
			if nowTick > w.lastTick {
				w.lastTick = nowTick
			}
			break
		}
		if earliest > nowTick {
			// Nothing pending matures in the gap; jump the walk forward.
			w.lastTick = nowTick
			break
		}
		// Deep lag: drain one rotation-sized band [earliest, end]. Every
		// bucket maps to exactly one tick of the band, so scan order is
		// tick order; deeper entries wait for the next, higher band.
		end := earliest + wheelBuckets - 1
		if end > nowTick {
			end = nowTick
		}
		for i := int64(0); i < wheelBuckets; i++ {
			b := &w.buckets[(earliest+i)&(wheelBuckets-1)]
			if b.minTick.Load() <= end {
				w.drainBucket(b, end, emit)
			}
		}
		if end > w.lastTick {
			w.lastTick = end
		}
		if end == nowTick {
			break
		}
		earliest = math.MaxInt64
		for i := range w.buckets {
			if mt := w.buckets[i].minTick.Load(); mt < earliest {
				earliest = mt
			}
		}
	}
	next := int64(math.MaxInt64)
	for i := range w.buckets {
		if mt := w.buckets[i].minTick.Load(); mt < next {
			next = mt
		}
	}
	w.lastNext = next
	return next
}
