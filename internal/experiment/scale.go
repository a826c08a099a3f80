// Keyed-parallelism scaling: throughput versus partition-instance count on
// the counter workload, plus a live n→n+1 rescale with exactly-once
// verification. This is the evaluation for the "-fig scale" figure: the
// paper scales subjobs out for availability; this figure shows the same
// subjob machinery scaling for throughput, and that the delta-checkpoint
// shipping built for standby refresh doubles as live state migration.
package experiment

import (
	"fmt"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/subjob"
)

// ScaleParallelisms is the instance-count sweep of the scaling figure.
var ScaleParallelisms = []int{1, 2, 4, 8}

// ScalePoint is one measured instance count.
type ScalePoint struct {
	Parallelism int
	ElemsPerSec float64
	Speedup     float64
}

// ScaleRescale is the live n→n+1 rescale measurement.
type ScaleRescale struct {
	From, To     int
	CutoverPause time.Duration
	SyncDuration time.Duration
	Rounds       int
	FullBytes    int
	DeltaBytes   int
	Moved        int
	Emitted      uint64
	Delivered    uint64
	Lost         uint64
	Duplicated   uint64
}

// ScaleResult is the scaling figure's data.
type ScaleResult struct {
	Points  []ScalePoint
	Rescale ScaleRescale
}

// scalePECost is the per-element CPU work of each PE in the scaling
// workload; two PEs per instance give a per-instance capacity of about
// 25k elements/s, low enough that a single host CPU can offer several
// saturated instances worth of simulated work.
const scalePECost = 20 * time.Microsecond

func scalePEs(pad int) []subjob.PESpec {
	return []subjob.PESpec{
		{Name: "pe0", NewLogic: newCounterLogic(pad), Cost: scalePECost},
		{Name: "pe1", NewLogic: newCounterLogic(pad), Cost: scalePECost},
	}
}

// runScalePoint measures sink throughput of a single keyed-parallel stage
// at parallelism n under an offered load well above one instance's
// capacity.
func runScalePoint(n int, rate float64, warmup, run time.Duration) (float64, error) {
	cl := cluster.New(cluster.Config{Latency: 200 * time.Microsecond})
	defer cl.Close()
	cl.MustAddMachine("m-src")
	cl.MustAddMachine("m-sink")
	primaries := make([]string, n)
	for k := range primaries {
		primaries[k] = fmt.Sprintf("p%d", k)
		cl.MustAddMachine(primaries[k])
	}

	pipe, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "scale",
		Source:      ha.SourceDef{Machine: "m-src", Rate: rate, Tick: 2 * time.Millisecond},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs:         scalePEs(50),
			Mode:        ha.ModeNone,
			Parallelism: n,
			Primaries:   primaries,
			Primary:     primaries[0],
			BatchSize:   32,
		}},
	})
	if err != nil {
		return 0, err
	}
	defer pipe.Stop()
	if err := pipe.Start(); err != nil {
		return 0, err
	}

	clk := cl.Clock()
	clk.Sleep(warmup)
	rec0, t0 := pipe.Sink().Received(), clk.Now()
	clk.Sleep(run)
	rec1, t1 := pipe.Sink().Received(), clk.Now()
	return float64(rec1-rec0) / t1.Sub(t0).Seconds(), nil
}

// runScaleRescale runs a hybrid-protected Parallelism(2) stage at a
// comfortable load, scales it out to 3 instances mid-run, then stops the
// source, drains, and audits the sink's per-ID delivery counts.
func runScaleRescale(serve time.Duration) (ScaleRescale, error) {
	var res ScaleRescale
	cl := cluster.New(cluster.Config{Latency: 200 * time.Microsecond})
	defer cl.Close()
	for _, m := range []string{"m-src", "m-sink", "p0", "p1", "s0", "s1", "p-new", "s-new"} {
		cl.MustAddMachine(m)
	}

	pipe, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "rescale",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 12000, Tick: 2 * time.Millisecond},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs:         scalePEs(50),
			Mode:        ha.ModeHybrid,
			Parallelism: 2,
			Primaries:   []string{"p0", "p1"},
			Secondaries: []string{"s0", "s1"},
			Primary:     "p0",
			Secondary:   "s0",
			BatchSize:   32,
		}},
		Hybrid:   core.Options{CheckpointInterval: 10 * time.Millisecond},
		TrackIDs: true,
	})
	if err != nil {
		return res, err
	}
	defer pipe.Stop()
	if err := pipe.Start(); err != nil {
		return res, err
	}

	clk := cl.Clock()
	clk.Sleep(serve)
	rep, err := pipe.ScaleOut(0, ha.RescalePlacement{Primary: "p-new", Secondary: "s-new"})
	if err != nil {
		return res, err
	}
	clk.Sleep(serve)

	// Quiesce: stop the offered load and wait until the sink stops
	// advancing, so nothing is legitimately in flight when we audit.
	pipe.Source().Stop()
	last := pipe.Sink().Received()
	for settle := 0; settle < 10; {
		clk.Sleep(50 * time.Millisecond)
		if now := pipe.Sink().Received(); now != last {
			last, settle = now, 0
		} else {
			settle++
		}
	}

	res = ScaleRescale{
		From:         2,
		To:           3,
		CutoverPause: rep.CutoverPause,
		SyncDuration: rep.SyncDuration,
		Rounds:       rep.Rounds,
		FullBytes:    rep.FullBytes,
		DeltaBytes:   rep.DeltaBytes,
		Moved:        len(rep.Moved),
		Emitted:      pipe.Source().Emitted(),
		Delivered:    pipe.Sink().Received(),
	}
	counts := pipe.Sink().IDCounts()
	for _, c := range counts {
		if c > 1 {
			res.Duplicated += uint64(c - 1)
		}
	}
	if distinct := uint64(len(counts)); distinct < res.Emitted {
		res.Lost = res.Emitted - distinct
	}
	return res, nil
}

// RunScale produces the keyed-parallelism scaling figure. smoke restricts
// the sweep to n ∈ {1, 4} with short runs for CI.
func RunScale(smoke bool) (*ScaleResult, error) {
	ns := ScaleParallelisms
	warmup, run, serve := 500*time.Millisecond, 2*time.Second, 600*time.Millisecond
	if smoke {
		ns = []int{1, 4}
		warmup, run, serve = 300*time.Millisecond, 700*time.Millisecond, 300*time.Millisecond
	}

	// Offered load: about 6x one instance's capacity, so every swept n
	// short of saturation is compute-bound and the curve reflects the
	// fan-out, not the source.
	const rate = 150000

	r := &ScaleResult{}
	for _, n := range ns {
		eps, err := runScalePoint(n, rate, warmup, run)
		if err != nil {
			return nil, err
		}
		r.Points = append(r.Points, ScalePoint{Parallelism: n, ElemsPerSec: eps})
	}
	base := r.Points[0].ElemsPerSec
	for i := range r.Points {
		if base > 0 {
			r.Points[i].Speedup = r.Points[i].ElemsPerSec / base
		}
	}

	resc, err := runScaleRescale(serve)
	if err != nil {
		return nil, err
	}
	r.Rescale = resc
	return r, nil
}

// Table renders the scaling sweep and the rescale audit.
func (r *ScaleResult) Table() Table {
	t := Table{
		Title:  "Keyed parallelism: counter-workload throughput vs partition instances",
		Note:   "hash fan-out by element key; saturating offered load; one instance per machine; plus a live 2->3 rescale (hybrid mode) with exactly-once audit",
		Header: []string{"instances", "elems/s", "speedup"},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.Parallelism),
			fmt.Sprintf("%.0f", pt.ElemsPerSec),
			f2(pt.Speedup) + "x",
		})
	}
	rs := r.Rescale
	t.Rows = append(t.Rows, []string{"", "", ""})
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("rescale %d->%d", rs.From, rs.To), "", "",
	})
	t.Rows = append(t.Rows, []string{"  cutover pause", ms(rs.CutoverPause) + " ms", ""})
	t.Rows = append(t.Rows, []string{"  sync total", ms(rs.SyncDuration) + " ms", fmt.Sprintf("%d rounds", rs.Rounds)})
	t.Rows = append(t.Rows, []string{"  shipped", fmt.Sprintf("%d B full", rs.FullBytes), fmt.Sprintf("%d B delta", rs.DeltaBytes)})
	t.Rows = append(t.Rows, []string{"  partitions moved", fmt.Sprintf("%d", rs.Moved), ""})
	t.Rows = append(t.Rows, []string{"  exactly-once", fmt.Sprintf("lost %d", rs.Lost), fmt.Sprintf("duped %d", rs.Duplicated)})
	return t
}
