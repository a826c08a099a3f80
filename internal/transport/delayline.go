package transport

import (
	"math"
	"sync"
)

// delayLine is the in-memory network's latency scheduler: one FIFO of
// pending deliveries behind one mutex. Every deadline is the send time plus
// the network's one Latency, so send order is already deadline order and
// an append at the tail keeps the line sorted; the scheduler releases a
// mature prefix and waits for the new head. Its invariants:
//
//   - Never early: take releases an entry only once now has reached its
//     deadline.
//   - FIFO: entries leave in the order they were appended, so each
//     (sender, receiver) pair keeps its send order. A sender that stalled
//     between its clock read and its append carries a deadline below the
//     tail's; add raises it to the tail's, so the line stays sorted and the
//     straggler is only ever delayed, never released early or ahead of the
//     tail.
//   - No lost wake-up: take sets parked, under the lock, when it leaves the
//     line empty, and the next add clears and reports it; that sender
//     signals the scheduler, which parks only after such a take. A
//     non-empty line needs no wake-up: a new entry sits behind the head the
//     scheduler is waiting for.
type delayLine struct {
	mu sync.Mutex
	// entries[head:] are pending, in deadline order; entries[:head] are
	// released slots, scrubbed and reused once the backing array fills.
	entries []delayEntry
	head    int
	parked  bool
}

// delayEntry is one pending delivery; at is its deadline in Unix ns.
type delayEntry struct {
	at   int64
	from NodeID
	to   NodeID
	msg  Message
}

// add appends one delivery due at at (Unix ns) and reports whether the
// scheduler parked on an empty line and must be woken.
func (l *delayLine) add(at int64, from, to NodeID, msg Message) (wake bool) {
	l.mu.Lock()
	n := len(l.entries)
	if n > l.head && at < l.entries[n-1].at {
		at = l.entries[n-1].at
	}
	if l.head > 0 && n == cap(l.entries) {
		n = copy(l.entries, l.entries[l.head:])
		clear(l.entries[n:])
		l.entries, l.head = l.entries[:n], 0
	}
	l.entries = append(l.entries, delayEntry{at: at, from: from, to: to, msg: msg})
	wake, l.parked = l.parked, false
	l.mu.Unlock()
	return wake
}

// take appends every entry due at now (Unix ns) to out, in deadline order,
// and returns out with the next pending deadline — math.MaxInt64 when the
// line is left empty, in which case the next add reports a wake-up.
func (l *delayLine) take(now int64, out []delayEntry) ([]delayEntry, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := l.head
	for k < len(l.entries) && l.entries[k].at <= now {
		k++
	}
	out = append(out, l.entries[l.head:k]...)
	clear(l.entries[l.head:k]) // do not pin released payloads
	l.head = k
	if k < len(l.entries) {
		return out, l.entries[k].at
	}
	l.entries, l.head, l.parked = l.entries[:0], 0, true
	return out, math.MaxInt64
}
