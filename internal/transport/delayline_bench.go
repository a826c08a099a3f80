package transport

import "time"

// DelaySched is a thin exported handle over Mem's delay line for the wire
// benchmarks in internal/experiment, which pit it against a frozen copy of
// the seed's global-mutex heap scheduler. It exists only so the benchmark
// can drive the scheduling structure in isolation — production code goes
// through Mem, never this type. The zero value is ready to use.
type DelaySched struct {
	l   delayLine
	out []delayEntry
}

// Add schedules one message, the send-path half of the structure.
func (s *DelaySched) Add(deadline time.Time, from, to NodeID, msg Message) {
	s.l.add(deadline.UnixNano(), from, to, msg)
}

// Drain releases and discards every entry mature at now and returns the
// count. Not safe for concurrent Drain calls; Add may race with it, as in
// Mem.
func (s *DelaySched) Drain(now time.Time) int {
	s.out, _ = s.l.take(now.UnixNano(), s.out[:0])
	clear(s.out)
	return len(s.out)
}
