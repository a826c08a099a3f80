package transport

import (
	"encoding/json"
	"sync/atomic"
)

// Stats is a snapshot of cumulative traffic counters, broken down by message
// kind. Element counts use Message.ElementUnits, matching the paper's
// element-based overhead accounting. Wire holds the socket-level counters
// maintained by the TCP transport; it stays zero on the in-memory network.
type Stats struct {
	Messages map[Kind]int64
	Elements map[Kind]int64
	Wire     WireStats
}

// WireStats counts socket-level wire activity on a TCP segment: encoded
// frames and bytes out, write batches (each batch is one queue drain,
// flushed with as few socket writes as possible), decoded frames and bytes
// in, and frames dropped because the peer was unreachable, the connection
// died mid-batch, or the outbound queue overflowed.
type WireStats struct {
	FramesSent    int64 `json:"frames_sent"`
	BytesSent     int64 `json:"bytes_sent"`
	Batches       int64 `json:"batches"`
	FramesRecv    int64 `json:"frames_recv"`
	BytesRecv     int64 `json:"bytes_recv"`
	FramesDropped int64 `json:"frames_dropped"`
}

// isZero reports whether no wire activity was recorded (always true for
// the in-memory network).
func (w WireStats) isZero() bool { return w == WireStats{} }

// sub returns the counter deltas w minus earlier.
func (w WireStats) sub(earlier WireStats) WireStats {
	return WireStats{
		FramesSent:    w.FramesSent - earlier.FramesSent,
		BytesSent:     w.BytesSent - earlier.BytesSent,
		Batches:       w.Batches - earlier.Batches,
		FramesRecv:    w.FramesRecv - earlier.FramesRecv,
		BytesRecv:     w.BytesRecv - earlier.BytesRecv,
		FramesDropped: w.FramesDropped - earlier.FramesDropped,
	}
}

// TotalElements returns the total element units across all kinds: the
// y-axis value of the paper's overhead figures.
func (s Stats) TotalElements() int64 {
	var n int64
	for _, v := range s.Elements {
		n += v
	}
	return n
}

// TotalMessages returns the total number of messages across all kinds.
func (s Stats) TotalMessages() int64 {
	var n int64
	for _, v := range s.Messages {
		n += v
	}
	return n
}

// DataElements returns the element units carried in data messages.
func (s Stats) DataElements() int64 { return s.Elements[KindData] }

// CheckpointElements returns the element units carried in checkpoint and
// read-state messages.
func (s Stats) CheckpointElements() int64 {
	return s.Elements[KindCheckpoint] + s.Elements[KindReadStateResp]
}

// MarshalJSON renders the counters keyed by message-kind name, with the
// aggregate totals the paper's overhead figures use, so a Stats value can
// be exported directly through the metrics registry.
func (s Stats) MarshalJSON() ([]byte, error) {
	named := func(m map[Kind]int64) map[string]int64 {
		out := make(map[string]int64, len(m))
		for k, v := range m {
			out[k.String()] = v
		}
		return out
	}
	var wire *WireStats
	if !s.Wire.isZero() {
		wire = &s.Wire
	}
	return json.Marshal(struct {
		Messages           map[string]int64 `json:"messages"`
		Elements           map[string]int64 `json:"elements"`
		TotalMessages      int64            `json:"total_messages"`
		TotalElements      int64            `json:"total_elements"`
		DataElements       int64            `json:"data_elements"`
		CheckpointElements int64            `json:"checkpoint_elements"`
		Wire               *WireStats       `json:"wire,omitempty"`
	}{
		Messages:           named(s.Messages),
		Elements:           named(s.Elements),
		TotalMessages:      s.TotalMessages(),
		TotalElements:      s.TotalElements(),
		DataElements:       s.DataElements(),
		CheckpointElements: s.CheckpointElements(),
		Wire:               wire,
	})
}

// Sub returns the counter deltas s minus earlier, for measuring traffic over
// a window.
func (s Stats) Sub(earlier Stats) Stats {
	out := Stats{Messages: map[Kind]int64{}, Elements: map[Kind]int64{}}
	for k, v := range s.Messages {
		out.Messages[k] = v - earlier.Messages[k]
	}
	for k, v := range s.Elements {
		out.Elements[k] = v - earlier.Elements[k]
	}
	out.Wire = s.Wire.sub(earlier.Wire)
	return out
}

// counters accumulates traffic with atomics so the hot send path never
// contends on a lock.
type counters struct {
	messages [KindControl + 1]atomic.Int64
	elements [KindControl + 1]atomic.Int64

	// Socket-level wire counters, maintained only by the TCP transport.
	wireFramesSent atomic.Int64
	wireBytesSent  atomic.Int64
	wireBatches    atomic.Int64
	wireFramesRecv atomic.Int64
	wireBytesRecv  atomic.Int64
	wireDropped    atomic.Int64
}

// record counts one message of kind k carrying units element units. It
// takes scalar arguments rather than a *Message so the hot send path never
// takes the message's address, which would force every sent message onto
// the heap.
func (c *counters) record(k Kind, units int) {
	if k < 0 || int(k) >= len(c.messages) {
		k = KindInvalid
	}
	c.messages[k].Add(1)
	if units > 0 {
		c.elements[k].Add(int64(units))
	}
}

func (c *counters) snapshot() Stats {
	s := Stats{Messages: map[Kind]int64{}, Elements: map[Kind]int64{}}
	for k := KindInvalid; k <= KindControl; k++ {
		if n := c.messages[k].Load(); n != 0 {
			s.Messages[k] = n
		}
		if n := c.elements[k].Load(); n != 0 {
			s.Elements[k] = n
		}
	}
	s.Wire = WireStats{
		FramesSent:    c.wireFramesSent.Load(),
		BytesSent:     c.wireBytesSent.Load(),
		Batches:       c.wireBatches.Load(),
		FramesRecv:    c.wireFramesRecv.Load(),
		BytesRecv:     c.wireBytesRecv.Load(),
		FramesDropped: c.wireDropped.Load(),
	}
	return s
}
