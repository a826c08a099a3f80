package queue

import "streamha/internal/element"

// RestoreBuf replaces the queued elements and raises the dedup mark to
// cover them.
func (q *Input) RestoreBuf(buf []In) {
	q.mu.Lock()
	q.buf = append([]In(nil), buf...)
	for _, in := range q.buf {
		if in.Elem.Seq > q.accepted[in.Stream] {
			q.accepted[in.Stream] = in.Elem.Seq
		}
	}
	n := len(q.buf)
	q.mu.Unlock()
	if n > 0 {
		q.signal()
	}
}

// PartitionOf returns the logical partition of key.
func (pt *Partitioner) PartitionOf(key uint64) int {
	return element.PartitionOf(key, len(*pt.table.Load()))
}
