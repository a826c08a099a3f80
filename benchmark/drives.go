package main

import (
	"fmt"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/ha"
	"streamha/internal/machine"
	"streamha/internal/metrics"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// defaultDrive is how long each timed loop of a drive runs.
const defaultDrive = 300 * time.Millisecond

// A drive times isolated calls into one layer's public functions, shaped
// like the workload: its batch size, state pad and subscriber count. Drives
// run after the chain has stopped, so they have the process to themselves;
// they say what a layer costs per element when nothing else contends, which
// the budget table sets against the CPU the whole process used.

// batchOf returns n elements with consecutive sequence numbers from seq.
func batchOf(n int, seq uint64) []element.Element {
	b := make([]element.Element, n)
	for i := range b {
		id := seq + uint64(i)
		b[i] = element.Element{ID: id, Seq: id, Origin: int64(id), Payload: int64(id), Key: id}
	}
	return b
}

// loopFor calls f until d has passed and returns ns per unit, where each call
// handles units units.
func loopFor(d time.Duration, units int, f func()) float64 {
	start := time.Now()
	calls := 0
	for time.Since(start) < d {
		for i := 0; i < 16; i++ {
			f()
		}
		calls += 16
	}
	return float64(time.Since(start)) / float64(calls*units)
}

// drivePublish times Output.Publish plus the cumulative Ack that trims it,
// with the workload's subscriber set: two live copies downstream of an
// active stage, one live and one early (inactive) connection downstream of
// a hybrid one, one otherwise.
func drivePublish(w *workload, d time.Duration) float64 {
	out := queue.NewOutput("drive", func(transport.NodeID, transport.Message) {})
	nodes := []transport.NodeID{"a"}
	out.Subscribe("a", "in", true)
	switch w.modes[len(w.modes)-1] {
	case ha.ModeActive:
		out.Subscribe("b", "in", true)
		nodes = append(nodes, "b")
	case ha.ModeHybrid, ha.ModeApprox:
		out.Subscribe("b", "in", false)
	}
	n := w.batch
	calls := 0
	return loopFor(d, n, func() {
		out.Publish(batchOf(n, 1))
		// Consumers acknowledge on a timer, several batches at a time.
		if calls++; calls%8 == 0 {
			for _, node := range nodes {
				out.Ack(node, out.NextSeq()-1)
			}
		}
	})
}

// driveInput times Input.Push plus TryPop. Downstream of an active stage
// every batch arrives twice, once from each copy, and the second is
// eliminated.
func driveInput(w *workload, d time.Duration) float64 {
	in := queue.NewInput("s")
	n := w.batch
	seq := uint64(1)
	dup := w.modes[0] == ha.ModeActive
	return loopFor(d, n, func() {
		b := batchOf(n, seq)
		in.Push("s", b)
		if dup {
			in.Push("s", b)
		}
		seq += uint64(n)
		for len(in.TryPop(n)) > 0 {
		}
	})
}

// driveMemHop times Send to handler on a transport.Mem with the workloads'
// latency: the median of sequential one-way deliveries.
func driveMemHop(d time.Duration) (float64, error) {
	net := transport.NewMem(transport.MemConfig{Clock: clock.New(), Latency: netLatency})
	defer net.Close()
	got := make(chan struct{}, 1)
	a, err := net.Register("a", func(transport.NodeID, transport.Message) {})
	if err != nil {
		return 0, err
	}
	if _, err := net.Register("b", func(transport.NodeID, transport.Message) { got <- struct{}{} }); err != nil {
		return 0, err
	}
	var hops []float64
	for start := time.Now(); time.Since(start) < d; {
		t := time.Now()
		if err := a.Send("b", transport.Message{Kind: transport.KindAck, Stream: "s", Seq: 1}); err != nil {
			return 0, err
		}
		<-got
		hops = append(hops, ms(time.Since(t)))
	}
	return median(hops), nil
}

// driveCodec times AppendFrame and DecodeFrame on one data message of the
// workload's batch size.
func driveCodec(w *workload, d time.Duration) (encode, decode float64, err error) {
	msg := transport.Message{Kind: transport.KindData, Stream: subjob.DataStream("job/sj1", "job/s1"), Elements: batchOf(w.batch, 1)}
	var buf []byte
	encode = loopFor(d, w.batch, func() { buf = transport.AppendFrame(buf[:0], "p0", "p1", &msg) })
	decode = loopFor(d, w.batch, func() {
		if _, _, _, _, e := transport.DecodeFrame(buf); e != nil {
			err = e
		}
	})
	return encode, decode, err
}

// driveSnapshot times the checkpoint codec on a snapshot and a delta of one
// subjob copy shaped like the workload's: its PEs, pad and hot slots, and an
// output queue holding one acknowledgment interval of elements.
func driveSnapshot(w *workload, dur time.Duration) (full, delta, decode float64, err error) {
	net := transport.NewMem(transport.MemConfig{Clock: clock.New(), Latency: netLatency})
	defer net.Close()
	m, err := machine.New("drive", clock.New(), net)
	if err != nil {
		return 0, 0, 0, err
	}
	defer m.Close()
	stage := len(w.modes) - 1
	spec := subjob.Spec{JobID: "job", ID: "job/drive", InStreams: []string{"in"},
		Owners: map[string]string{"in": "src"}, OutStream: "out", PEs: peSpecs(w, stage, nil), BatchSize: w.batch}
	rt, err := subjob.New(spec, m, true) // never started: the drive is its only caller
	if err != nil {
		return 0, 0, 0, err
	}
	interval := int(w.rate * ckptInterval.Seconds())
	feed := func(seq uint64) {
		b := batchOf(interval, seq)
		for _, p := range rt.PEs() {
			for _, e := range b {
				p.Logic().Process(e, func(element.Element) {})
			}
		}
		rt.Out().Publish(b)
	}
	feed(1)
	snap := rt.CaptureFull()
	since := rt.Out().NextSeq()
	feed(uint64(interval) + 1)
	d, ok := rt.CaptureDelta(subjob.DeltaOptions{OutputSince: since, IncludeOutput: true, OnlyPE: -1})
	if !ok {
		return 0, 0, 0, fmt.Errorf("drive: no delta after a full capture")
	}
	var buf []byte
	full = loopFor(dur, snap.ElementUnits(), func() { buf = snap.AppendTo(buf[:0]) })
	decode = loopFor(dur, snap.ElementUnits(), func() {
		if _, _, e := subjob.DecodeCheckpoint(buf); e != nil {
			err = e
		}
	})
	var dbuf []byte
	delta = loopFor(dur, max(1, d.ElementUnits()), func() { dbuf = d.AppendTo(dbuf[:0]) })
	return full, delta, decode, err
}

func driveDelayStats(d time.Duration) float64 {
	var ds metrics.DelayStats
	v := time.Duration(0)
	return loopFor(d, 1, func() {
		v += 1000
		ds.Add(v)
	})
}

// runDrives runs every drive for workload w, sets the drive metrics, records
// one span per drive and returns the first error a drive met.
func runDrives(w *workload, d time.Duration, tr *tracer, single func(string, float64)) (err error) {
	timed := func(name string, f func() error) {
		start := time.Now()
		if e := f(); e != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
		tr.add(tr.nextID.Add(1), 0, "drive."+name, start, time.Now())
	}
	timed("queue.publish", func() error {
		single("queue.publish_ns_per_elem", drivePublish(w, d))
		return nil
	})
	timed("queue.input", func() error {
		single("queue.input_ns_per_elem", driveInput(w, d))
		return nil
	})
	timed("transport.mem_hop", func() error {
		v, err := driveMemHop(d)
		single("transport.mem_hop_ms", v)
		return err
	})
	timed("transport.codec", func() error {
		enc, dec, err := driveCodec(w, d)
		single("transport.encode_ns_per_elem", enc)
		single("transport.decode_ns_per_elem", dec)
		return err
	})
	timed("subjob.codec", func() error {
		full, delta, dec, err := driveSnapshot(w, d)
		single("subjob.snapshot_encode_ns_per_unit", full)
		single("subjob.delta_encode_ns_per_unit", delta)
		single("subjob.decode_ns_per_unit", dec)
		return err
	})
	timed("metrics.delaystats", func() error {
		single("metrics.delaystats_add_ns", driveDelayStats(d))
		return nil
	})
	return err
}
