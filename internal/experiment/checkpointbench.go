package experiment

import (
	"fmt"
	"testing"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// This file measures the checkpoint path: the binary snapshot codec vs the
// seed's gob encoding (kept as Snapshot.EncodeGob, the frozen baseline),
// the pause window under the seed protocol (encode inside the pause) vs
// the split capture/ship pipeline, and the bytes shipped per sweep with
// full snapshots vs incremental deltas at ~1% state churn. The bodies are
// shared between the go-test harness (BenchmarkCheckpoint* in
// bench_checkpoint_test.go, which CI smoke-runs) and streamha-bench -fig
// checkpoint, so recorded numbers come from the same code.

// CkptBenchPad sizes the benchmark PE state in element-equivalents:
// 32768 units = 1 MiB of pad, the "large state" regime where the pause
// and shipped-bytes savings matter.
const CkptBenchPad = 1 << 15

// ckptChurnPerSweep is how many elements are processed between two
// checkpoints in the churn benchmarks. With HotSlots equal to it, each
// sweep rewrites ckptChurnPerSweep consecutive 8-byte pad slots —
// about 41 dirty 256-byte pages, ~1% of the 1 MiB pad.
const ckptChurnPerSweep = 1312

// silentCounter is CounterLogic with its output suppressed: the churn
// benchmarks measure state-checkpoint traffic, so the output queue (whose
// cost the throughput family already covers) is kept empty.
type silentCounter struct {
	pe.CounterLogic
}

func (s *silentCounter) Process(e element.Element, _ func(element.Element)) {
	s.CounterLogic.Process(e, func(element.Element) {})
}

// ckptRig is a primary runtime with a large-state PE, a store on a second
// machine, and an upstream machine to feed from.
type ckptRig struct {
	net   *transport.Mem
	clk   clock.Clock
	priM  *machine.Machine
	secM  *machine.Machine
	upM   *machine.Machine
	rt    *subjob.Runtime
	store *checkpoint.Store
	fed   uint64
}

func newCkptRig(pad, hotSlots int) (*ckptRig, error) {
	net := transport.NewMem(transport.MemConfig{})
	clk := clock.New()
	priM, err := machine.New("pri", clk, net)
	if err != nil {
		net.Close()
		return nil, err
	}
	secM, err := machine.New("sec", clk, net)
	if err != nil {
		net.Close()
		return nil, err
	}
	upM, err := machine.New("up1", clk, net)
	if err != nil {
		net.Close()
		return nil, err
	}
	spec := subjob.Spec{
		JobID:     "bench",
		ID:        "bench/ckpt",
		InStreams: []string{"in"},
		Owners:    map[string]string{"in": "up"},
		OutStream: "out",
		BatchSize: 256,
		PEs: []subjob.PESpec{
			{Name: "a", NewLogic: func() pe.Logic {
				return &silentCounter{CounterLogic: pe.CounterLogic{Pad: pad, HotSlots: hotSlots}}
			}},
		},
	}
	rt, err := subjob.New(spec, priM, false)
	if err != nil {
		net.Close()
		return nil, err
	}
	rt.Start()
	r := &ckptRig{net: net, clk: clk, priM: priM, secM: secM, upM: upM, rt: rt}
	r.store = checkpoint.NewStore(secM, spec.ID, &checkpoint.Image{}, checkpoint.StoreOptions{})
	return r, nil
}

func (r *ckptRig) close() {
	r.store.Close()
	r.rt.Stop()
	r.net.Close()
}

// feed pushes n elements through the PE and waits for them to be
// processed, so the next checkpoint observes exactly this much churn.
func (r *ckptRig) feed(b *testing.B, n int) {
	batch := make([]element.Element, n)
	for i := range batch {
		r.fed++
		batch[i] = element.Element{ID: r.fed, Seq: r.fed, Payload: int64(r.fed)}
	}
	r.upM.Send(r.priM.ID(), transport.Message{
		Kind:     transport.KindData,
		Stream:   subjob.DataStream("bench/ckpt", "in"),
		Elements: batch,
	})
	deadline := time.Now().Add(5 * time.Second)
	for r.rt.PEs()[0].Processed() < r.fed {
		if time.Now().After(deadline) {
			b.Fatalf("feed stalled at %d/%d", r.rt.PEs()[0].Processed(), r.fed)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// ckptBenchSnapshot captures a representative large-state snapshot for the
// codec benchmarks: 1 MiB PE pad plus a little queue state.
func ckptBenchSnapshot(b *testing.B) (*subjob.Snapshot, func()) {
	r, err := newCkptRig(CkptBenchPad, ckptChurnPerSweep)
	if err != nil {
		b.Fatal(err)
	}
	r.feed(b, ckptChurnPerSweep)
	snap := r.rt.CaptureFull()
	return snap, r.close
}

// BenchCheckpointEncodeBinary measures encoding one large full snapshot
// with the binary codec into a buffer of sufficient capacity — the
// shipper's encode pass without its one payload allocation.
func BenchCheckpointEncodeBinary(b *testing.B) {
	snap, cleanup := ckptBenchSnapshot(b)
	defer cleanup()
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = snap.AppendTo(dst[:0])
	}
	b.StopTimer()
	b.SetBytes(int64(len(dst)))
}

// BenchCheckpointEncodeGob measures the same snapshot through the frozen
// gob baseline, the seed's per-checkpoint encode.
func BenchCheckpointEncodeGob(b *testing.B) {
	snap, cleanup := ckptBenchSnapshot(b)
	defer cleanup()
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := snap.EncodeGob()
		if err != nil {
			b.Fatal(err)
		}
		n = len(buf)
	}
	b.StopTimer()
	b.SetBytes(int64(n))
}

// BenchCheckpointDecodeBinary measures decoding one binary full snapshot,
// the store's per-checkpoint cost.
func BenchCheckpointDecodeBinary(b *testing.B) {
	snap, cleanup := ckptBenchSnapshot(b)
	defer cleanup()
	buf, err := snap.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subjob.DecodeSnapshot(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(len(buf)))
}

// ckptPauseChurn is the light churn fed between pause measurements; the
// same for every pause variant, so the variants differ only in what their
// pause window contains.
const ckptPauseChurn = 128

// benchPause drives one pause-per-iteration body and reports the mean
// pause window as "pause-ns/op" (ns/op additionally includes the feed and
// any backpressure, which tuple latency does not pay).
func benchPause(b *testing.B, r *ckptRig, pause func() time.Duration) {
	b.ReportAllocs()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		r.feed(b, ckptPauseChurn)
		total += pause()
	}
	b.StopTimer()
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "pause-ns/op")
}

// BenchCheckpointPauseSeedGob reproduces the seed protocol's pause window,
// frozen as a baseline: state capture, input snapshot AND the gob encode
// all happen while the PEs are suspended, and the encoded checkpoint is
// sent before resuming.
func BenchCheckpointPauseSeedGob(b *testing.B) {
	r, err := newCkptRig(CkptBenchPad, ckptChurnPerSweep)
	if err != nil {
		b.Fatal(err)
	}
	defer r.close()
	var seq uint64
	benchPause(b, r, func() time.Duration {
		start := time.Now()
		r.rt.WithPaused(func() {
			snap := r.rt.CaptureFull()
			snap.Input = r.rt.In().SnapshotBuf()
			snap.Consumed = r.rt.In().AcceptedAll()
			buf, err := snap.EncodeGob()
			if err != nil {
				b.Fatal(err)
			}
			seq++
			r.priM.Send(r.secM.ID(), transport.Message{
				Kind:         transport.KindCheckpoint,
				Stream:       subjob.CkptStream(r.rt.Spec().ID),
				Seq:          seq,
				State:        buf,
				ElementCount: snap.ElementUnits(),
			})
		})
		return time.Since(start)
	})
}

// BenchCheckpointPauseSplit measures the overhauled full-snapshot pause:
// the pause covers only the in-memory state capture, while encode and ship
// run on the background shipper.
func BenchCheckpointPauseSplit(b *testing.B) {
	r, err := newCkptRig(CkptBenchPad, ckptChurnPerSweep)
	if err != nil {
		b.Fatal(err)
	}
	defer r.close()
	cm := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:   r.rt,
		Clock:     r.clk,
		Interval:  time.Hour,
		StoreNode: r.secM.ID(),
		Costs:     checkpoint.Costs{Disabled: true},
	})
	cm.Start()
	defer cm.Stop()
	benchPause(b, r, cm.CheckpointNow)
}

// BenchCheckpointPauseDelta measures the incremental pause: most sweeps
// capture only the dirty pad pages and queue watermarks.
func BenchCheckpointPauseDelta(b *testing.B) {
	r, err := newCkptRig(CkptBenchPad, ckptChurnPerSweep)
	if err != nil {
		b.Fatal(err)
	}
	defer r.close()
	cm := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:     r.rt,
		Clock:       r.clk,
		Interval:    time.Hour,
		StoreNode:   r.secM.ID(),
		Costs:       checkpoint.Costs{Disabled: true},
		RebaseEvery: 64,
	})
	cm.Start()
	defer cm.Stop()
	benchPause(b, r, cm.CheckpointNow)
}

// benchSweepBytes runs b.N feed-then-checkpoint sweeps at ~1% churn under
// the given manager and reports the mean bytes shipped per sweep.
func benchSweepBytes(b *testing.B, r *ckptRig, cm checkpoint.Manager) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.feed(b, ckptChurnPerSweep)
		cm.CheckpointNow()
	}
	// The shipper runs behind the capture path; wait for it to drain.
	deadline := time.Now().Add(10 * time.Second)
	var st checkpoint.ManagerStats
	for {
		st = cm.Stats()
		if st.Fulls+st.Deltas >= b.N {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("shipper drained %d/%d checkpoints", st.Fulls+st.Deltas, b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.BytesFull+st.BytesDelta)/float64(b.N), "B/sweep")
	if st.DeltaRatio > 0 {
		b.ReportMetric(st.DeltaRatio, "delta-ratio")
	}
}

// BenchCheckpointBytesFullGob ships a gob full snapshot every sweep — the
// frozen seed volume baseline at 1% churn.
func BenchCheckpointBytesFullGob(b *testing.B) {
	r, err := newCkptRig(CkptBenchPad, ckptChurnPerSweep)
	if err != nil {
		b.Fatal(err)
	}
	defer r.close()
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.feed(b, ckptChurnPerSweep)
		r.rt.WithPaused(func() {
			snap := r.rt.CaptureFull()
			buf, err := snap.EncodeGob()
			if err != nil {
				b.Fatal(err)
			}
			total += int64(len(buf))
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(b.N), "B/sweep")
}

// BenchCheckpointBytesFullBinary ships a binary full snapshot every sweep
// (incremental off, the default configuration).
func BenchCheckpointBytesFullBinary(b *testing.B) {
	r, err := newCkptRig(CkptBenchPad, ckptChurnPerSweep)
	if err != nil {
		b.Fatal(err)
	}
	defer r.close()
	cm := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:   r.rt,
		Clock:     r.clk,
		Interval:  time.Hour,
		StoreNode: r.secM.ID(),
		Costs:     checkpoint.Costs{Disabled: true},
	})
	cm.Start()
	defer cm.Stop()
	benchSweepBytes(b, r, cm)
}

// BenchCheckpointBytesDelta ships deltas between every-8th-sweep rebases:
// the incremental configuration's shipped volume at 1% churn.
func BenchCheckpointBytesDelta(b *testing.B) {
	r, err := newCkptRig(CkptBenchPad, ckptChurnPerSweep)
	if err != nil {
		b.Fatal(err)
	}
	defer r.close()
	cm := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:     r.rt,
		Clock:       r.clk,
		Interval:    time.Hour,
		StoreNode:   r.secM.ID(),
		Costs:       checkpoint.Costs{Disabled: true},
		RebaseEvery: 8,
	})
	cm.Start()
	defer cm.Stop()
	benchSweepBytes(b, r, cm)
}

// CheckpointRow is one checkpoint-path benchmark measurement.
type CheckpointRow struct {
	Name        string
	NsPerOp     float64
	PauseNsOp   float64
	BytesSweep  float64
	MBPerSec    float64
	BytesPerOp  int64
	AllocsPerOp int64
}

// CheckpointResult holds the checkpoint-path benchmark sweep.
type CheckpointResult struct {
	Rows []CheckpointRow
}

// RunCheckpoint runs the checkpoint benchmark family via
// testing.Benchmark, outside the go-test harness. Smoke mode runs the
// codec benchmarks only, as a fast CI-style health check.
func RunCheckpoint(smoke bool) *CheckpointResult {
	res := &CheckpointResult{}
	add := func(name string, body func(b *testing.B)) {
		r := testing.Benchmark(body)
		row := CheckpointRow{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if v, ok := r.Extra["pause-ns/op"]; ok {
			row.PauseNsOp = v
		}
		if v, ok := r.Extra["B/sweep"]; ok {
			row.BytesSweep = v
		}
		if r.Bytes > 0 && r.T > 0 {
			row.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	add("encode/binary", BenchCheckpointEncodeBinary)
	add("encode/gob-baseline", BenchCheckpointEncodeGob)
	add("decode/binary", BenchCheckpointDecodeBinary)
	if !smoke {
		add("pause/seed-gob-baseline", BenchCheckpointPauseSeedGob)
		add("pause/split-full", BenchCheckpointPauseSplit)
		add("pause/split-delta", BenchCheckpointPauseDelta)
		add("bytes-1pct-churn/full-gob-baseline", BenchCheckpointBytesFullGob)
		add("bytes-1pct-churn/full-binary", BenchCheckpointBytesFullBinary)
		add("bytes-1pct-churn/delta-rebase8", BenchCheckpointBytesDelta)
	}
	return res
}

// Table renders the result.
func (r *CheckpointResult) Table() Table {
	t := Table{
		Title:  "Checkpoint path: codec, pause window and shipped volume (1 MiB PE state)",
		Note:   "binary snapshot codec vs frozen gob; capture-only pause vs seed encode-in-pause; delta sweeps at ~1% churn",
		Header: []string{"benchmark", "ns/op", "pause-ns", "B/sweep", "MB/s", "B/op", "allocs/op"},
	}
	for _, row := range r.Rows {
		cell := func(v float64) string {
			if v <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f", v)
		}
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%.0f", row.NsPerOp),
			cell(row.PauseNsOp),
			cell(row.BytesSweep),
			cell(row.MBPerSec),
			fmt.Sprintf("%d", row.BytesPerOp),
			fmt.Sprintf("%d", row.AllocsPerOp),
		})
	}
	return t
}
