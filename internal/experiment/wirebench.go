package experiment

import (
	"bytes"
	"container/heap"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamha/internal/transport"
)

// This file measures the wire path: the cost of encoding one frame for the
// TCP transport (hand-rolled length-prefixed binary codec vs the seed's gob
// framing, which tcp.go keeps behind TCPConfig.Codec as the frozen
// baseline), the end-to-end publish rate over a real socket under both
// codecs, and the in-memory latency scheduler's throughput (delay line vs a
// frozen copy of the seed's global-mutex container/heap scheduler). The
// bodies are shared between the go-test harness (BenchmarkWire* in
// bench_wire_test.go, which CI smoke-runs) and streamha-bench -fig wire, so
// recorded numbers come from the same code.

// gobWireFrame mirrors the TCP transport's gob wire unit, for the encode
// baseline benchmark.
type gobWireFrame struct {
	From transport.NodeID
	To   transport.NodeID
	Msg  transport.Message
}

// wireBenchMessage builds the data frame the codec benchmarks encode: one
// publish batch of ThroughputBatch elements, the hot shape on the wire.
func wireBenchMessage() transport.Message {
	return transport.Message{
		Kind:     transport.KindData,
		Stream:   "job/s1",
		Elements: NewThroughputBatch(ThroughputBatch, 1),
	}
}

// BenchWireEncodeBinary measures encoding one data frame with the binary
// codec into a recycled buffer — the TCP writer's steady-state encode cost.
func BenchWireEncodeBinary(b *testing.B) {
	msg := wireBenchMessage()
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = transport.AppendFrame(dst[:0], "pe-3", "sink-1", &msg)
	}
	b.StopTimer()
	b.SetBytes(int64(len(dst)))
}

// BenchWireEncodeGob measures the same frame through a persistent gob
// encoder writing to a reset buffer, reproducing the seed writer's shape:
// the seed encoded `&f` for each frame copied out of the drained batch, so
// every message heap-allocates its frame on top of gob's own encode work.
func BenchWireEncodeGob(b *testing.B) {
	frame := gobWireFrame{From: "pe-3", To: "sink-1", Msg: wireBenchMessage()}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&frame); err != nil { // prime the type descriptors
		b.Fatal(err)
	}
	frameLen := buf.Len()
	buf.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		f := frame
		if err := enc.Encode(&f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(frameLen))
}

// BenchWireDecodeBinary measures decoding one binary data frame.
func BenchWireDecodeBinary(b *testing.B) {
	msg := wireBenchMessage()
	buf := transport.AppendFrame(nil, "pe-3", "sink-1", &msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := transport.DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(len(buf)))
}

// BenchWireTCPPublish runs the publish path across a real TCP loopback
// connection under the given codec: the wire-path cost end to end,
// including the writer's batch drain and single-flush writes.
func BenchWireTCPPublish(b *testing.B, codec transport.Codec) {
	recv, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	var delivered atomic.Int64
	if _, err := recv.Register("sub0", func(_ transport.NodeID, msg transport.Message) {
		delivered.Add(int64(len(msg.Elements)))
	}); err != nil {
		b.Fatal(err)
	}

	send, err := transport.NewTCP(transport.TCPConfig{
		Peers: map[transport.NodeID]string{"sub0": recv.Addr()},
		Codec: codec,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	ep, err := send.Register("pub", func(transport.NodeID, transport.Message) {})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var published uint64
	for i := 0; i < b.N; i++ {
		batch := NewThroughputBatch(ThroughputBatch, published)
		published += ThroughputBatch
		if err := ep.Send("sub0", transport.Message{Kind: transport.KindData, Stream: "s", Elements: batch}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elems := float64(b.N) * ThroughputBatch
	b.ReportMetric(elems/b.Elapsed().Seconds(), "elems/s")
}

// ---------------------------------------------------------------------------
// Latency-scheduler benchmarks: delay line vs frozen seed heap.

// seedPendingDelivery and seedDeliveryQueue are the seed scheduler's heap
// entry and container/heap implementation, retained verbatim as a baseline
// after mem.go moved off it.
type seedPendingDelivery struct {
	at   time.Time
	seq  uint64
	from transport.NodeID
	to   transport.NodeID
	msg  transport.Message
}

type seedDeliveryQueue []*seedPendingDelivery

func (q seedDeliveryQueue) Len() int { return len(q) }
func (q seedDeliveryQueue) Less(i, j int) bool {
	if q[i].at.Equal(q[j].at) {
		return q[i].seq < q[j].seq
	}
	return q[i].at.Before(q[j].at)
}
func (q seedDeliveryQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *seedDeliveryQueue) Push(x any)   { *q = append(*q, x.(*seedPendingDelivery)) }
func (q *seedDeliveryQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}

var seedPendingPool = sync.Pool{New: func() any { return new(seedPendingDelivery) }}

// seedScheduler is the seed's latency scheduler frozen in place: every send
// pushes one heap entry under a single global mutex, and a drainer pops due
// entries. Matured deliveries are discarded; the benchmarks isolate the
// scheduling structure, which is what the delay line replaced.
type seedScheduler struct {
	mu    sync.Mutex
	queue seedDeliveryQueue
	seq   uint64
}

func (s *seedScheduler) push(at time.Time, from, to transport.NodeID, msg transport.Message) {
	pd := seedPendingPool.Get().(*seedPendingDelivery)
	pd.at = at
	pd.from = from
	pd.to = to
	pd.msg = msg
	s.mu.Lock()
	s.seq++
	pd.seq = s.seq
	heap.Push(&s.queue, pd)
	s.mu.Unlock()
}

// drainDue pops and discards every entry due at now.
func (s *seedScheduler) drainDue(now time.Time) int {
	n := 0
	s.mu.Lock()
	for s.queue.Len() > 0 && !s.queue[0].at.After(now) {
		pd := heap.Pop(&s.queue).(*seedPendingDelivery)
		*pd = seedPendingDelivery{}
		seedPendingPool.Put(pd)
		n++
	}
	s.mu.Unlock()
	return n
}

// wireSchedLatency is the simulated one-way latency the scheduler
// benchmarks run under.
const wireSchedLatency = 500 * time.Microsecond

// WireSchedSenders is the sender count the scheduler contention benchmarks
// use, matching the throughput family's widest fan-in.
const WireSchedSenders = 8

// wireSchedWindow bounds in-flight scheduled deliveries: a pusher stalls
// while the backlog is at the window, the way a flow-controlled send
// window would. Without a bound the benchmark degenerates into a one-shot
// "push b.N, then drain b.N" batch whose timing is dominated by allocator
// and GC behavior on an ever-growing backlog; with it, both structures are
// measured at sustained steady state, backlogged deeply enough that the
// heap's O(log n) pops and the delay line's O(1) appends and prefix copies
// are what differ.
const wireSchedWindow = 1 << 18

// wireClockBatch is how many sends share one deadline stamp. A per-push
// time.Now() costs more than a delay-line append itself and is identical for
// both structures, so stamping in small batches keeps the measurement on
// the scheduling structures rather than on the clock syscall.
const wireClockBatch = 32

// benchSched drives one scheduling structure: WireSchedSenders goroutines
// push delayed deliveries as fast as they can — subject to the
// wireSchedWindow in-flight bound — while one drainer goroutine releases
// matured entries, the same division of labor as Mem's send path and
// scheduler goroutine. Reported msgs/s counts scheduled messages; the
// timer stops only once the drainer has released everything.
func benchSched(b *testing.B, push func(sender int, at time.Time), drain func(time.Time) int) {
	var pushed, drained atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := drain(time.Now()); n > 0 {
				drained.Add(int64(n))
			} else {
				time.Sleep(5 * time.Microsecond)
			}
		}
	}()
	per := b.N/WireSchedSenders + 1
	total := int64(per * WireSchedSenders)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < WireSchedSenders; g++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			var at time.Time
			for i := 0; i < per; i++ {
				if i&(wireClockBatch-1) == 0 {
					for pushed.Load()-drained.Load() >= wireSchedWindow {
						runtime.Gosched()
					}
					pushed.Add(wireClockBatch)
					at = time.Now().Add(wireSchedLatency)
				}
				push(sender, at)
			}
		}(g)
	}
	wg.Wait()
	for drained.Load() < total {
		time.Sleep(20 * time.Microsecond)
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchWireSchedSeed hammers the frozen seed scheduler, the workload that
// serialized every sender on one mutex and paid O(log n) per push.
func BenchWireSchedSeed(b *testing.B) {
	s := &seedScheduler{}
	msg := transport.Message{Kind: transport.KindPing}
	benchSched(b,
		func(_ int, at time.Time) { s.push(at, "src", "dst", msg) },
		s.drainDue)
}

// BenchWireSchedDelayLine runs the identical workload through the delay
// line Mem now schedules with: one mutex, an O(1) append per push and a
// prefix copy per drain.
func BenchWireSchedDelayLine(b *testing.B) {
	s := &transport.DelaySched{}
	msg := transport.Message{Kind: transport.KindPing}
	benchSched(b,
		func(_ int, at time.Time) { s.Add(at, "src", "dst", msg) },
		s.Drain)
}

// WireRow is one wire-path benchmark measurement.
type WireRow struct {
	Name        string
	NsPerOp     float64
	MBPerSec    float64
	MsgsPerSec  float64
	BytesPerOp  int64
	AllocsPerOp int64
}

// WireResult holds the wire-path benchmark sweep.
type WireResult struct {
	Rows []WireRow
}

// RunWire runs the wire-path benchmark family via testing.Benchmark,
// outside the go-test harness.
func RunWire() *WireResult {
	res := &WireResult{}
	add := func(name string, body func(b *testing.B)) {
		r := testing.Benchmark(body)
		row := WireRow{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if v, ok := r.Extra["MB/s"]; ok {
			row.MBPerSec = v
		} else if r.Bytes > 0 && r.T > 0 {
			row.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		if v, ok := r.Extra["msgs/s"]; ok {
			row.MsgsPerSec = v
		}
		if v, ok := r.Extra["elems/s"]; ok {
			row.MsgsPerSec = v
		}
		res.Rows = append(res.Rows, row)
	}
	add("encode/binary", BenchWireEncodeBinary)
	add("encode/gob-baseline", BenchWireEncodeGob)
	add("decode/binary", BenchWireDecodeBinary)
	add("tcp-publish/binary", func(b *testing.B) { BenchWireTCPPublish(b, transport.CodecBinary) })
	add("tcp-publish/gob-baseline", func(b *testing.B) { BenchWireTCPPublish(b, transport.CodecGob) })
	add("sched-8senders/delayline", BenchWireSchedDelayLine)
	add("sched-8senders/seed-heap", BenchWireSchedSeed)
	return res
}

// Table renders the result.
func (r *WireResult) Table() Table {
	t := Table{
		Title:  "Wire path: frame codec and latency scheduler (batch of 64)",
		Note:   "binary length-prefixed codec + batched flushes vs gob baseline; delay line vs seed global-mutex heap",
		Header: []string{"benchmark", "ns/op", "MB/s", "msgs|elems/s", "B/op", "allocs/op"},
	}
	for _, row := range r.Rows {
		mb := "-"
		if row.MBPerSec > 0 {
			mb = fmt.Sprintf("%.0f", row.MBPerSec)
		}
		rate := "-"
		if row.MsgsPerSec > 0 {
			rate = fmt.Sprintf("%.0f", row.MsgsPerSec)
		}
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%.0f", row.NsPerOp),
			mb,
			rate,
			fmt.Sprintf("%d", row.BytesPerOp),
			fmt.Sprintf("%d", row.AllocsPerOp),
		})
	}
	return t
}
