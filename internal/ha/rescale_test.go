package ha_test

import (
	"reflect"
	"testing"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/metrics"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
)

// buildRescaleTestbed deploys a hybrid-protected keyed-parallel stage at
// Parallelism(2) with two PEs per instance, so the inter-PE pipe is part
// of the migrated state, plus spare machines for the instance ScaleOut
// adds.
func buildRescaleTestbed(t *testing.T) (*cluster.Cluster, *ha.Pipeline) {
	t.Helper()
	cl := cluster.New(cluster.Config{Latency: 200 * time.Microsecond})
	for _, m := range []string{"m-src", "m-sink", "p0", "p1", "s0", "s1", "p-new", "s-new"} {
		cl.MustAddMachine(m)
	}
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "rescale",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 12000, Tick: 2 * time.Millisecond},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs: []subjob.PESpec{
				{Name: "pe0", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 50} }, Cost: 20 * time.Microsecond},
				{Name: "pe1", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 50} }, Cost: 20 * time.Microsecond},
			},
			Mode:        ha.ModeHybrid,
			Parallelism: 2,
			Primaries:   []string{"p0", "p1"},
			Secondaries: []string{"s0", "s1"},
			BatchSize:   32,
		}},
		Hybrid:   core.Options{CheckpointInterval: 10 * time.Millisecond},
		TrackIDs: true,
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		p.Stop()
		cl.Close()
	})
	return cl, p
}

// drainPipeline stops the source and waits until the sink stops advancing,
// so nothing is legitimately in flight when the delivery audit runs.
func drainPipeline(p *ha.Pipeline, clk interface{ Sleep(time.Duration) }) {
	p.Source().Stop()
	last := p.Sink().Received()
	for settle := 0; settle < 10; {
		clk.Sleep(50 * time.Millisecond)
		if now := p.Sink().Received(); now != last {
			last, settle = now, 0
		} else {
			settle++
		}
	}
}

// TestRescaleExactlyOnce grows a serving 2-instance stage to 3 and audits
// every source element's delivery count: a correct live rescale loses
// nothing and delivers nothing twice, even though the donor's elements are
// split between two instances mid-stream.
func TestRescaleExactlyOnce(t *testing.T) {
	cl, p := buildRescaleTestbed(t)
	clk := cl.Clock()
	clk.Sleep(300 * time.Millisecond)

	rep, err := p.ScaleOut(0, ha.RescalePlacement{Primary: "p-new", Secondary: "s-new"})
	if err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	clk.Sleep(300 * time.Millisecond)
	drainPipeline(p, clk)

	// Report invariants: one new instance, a non-trivial partition move, a
	// full round plus at least SyncRounds+1 deltas (the final one under
	// pause), and a bounded cutover.
	if rep.NewInstance != 2 || rep.Donor < 0 || rep.Donor > 1 {
		t.Fatalf("report placement %+v", rep)
	}
	if len(rep.Moved) == 0 {
		t.Fatalf("no partitions moved: %+v", rep)
	}
	if rep.FullBytes == 0 || rep.DeltaBytes == 0 || rep.Rounds < 3 {
		t.Fatalf("state sync rounds missing: %+v", rep)
	}
	if rep.CutoverPause <= 0 || rep.CutoverPause > time.Second {
		t.Fatalf("cutover pause %v out of range", rep.CutoverPause)
	}

	// The routing table and the pipeline agree on the grown stage.
	split := p.StagePartitioner(0)
	if split.Instances() != 3 {
		t.Fatalf("partitioner has %d instances, want 3", split.Instances())
	}
	if got := split.OwnedBy(2); len(got) != len(rep.Moved) {
		t.Fatalf("new instance owns %d partitions, report moved %d", len(got), len(rep.Moved))
	}
	groups := p.StageInstances(0)
	if len(groups) != 3 {
		t.Fatalf("stage has %d instances, want 3", len(groups))
	}

	// The new instance actually served: its first PE processed elements
	// after cutover (adoption alone never advances the processed counter).
	newRT := groups[2].HA.PrimaryRuntime()
	if got := newRT.PEs()[0].Processed(); got == 0 {
		t.Fatal("new instance processed nothing after cutover")
	}
	// The cutover is on the donor's lifecycle record as a migration.
	if migs := groups[rep.Donor].HA.Migrations(); len(migs) != 1 {
		t.Fatalf("donor recorded %d migration events, want 1", len(migs))
	}

	// Exactly-once audit over every emitted element. CounterLogic derives
	// child IDs with index 0, which is the identity, so sink IDs are
	// source IDs.
	emitted := p.Source().Emitted()
	if emitted == 0 {
		t.Fatal("source emitted nothing")
	}
	counts := p.Sink().IDCounts()
	var dup, lost int
	for id := uint64(1); id <= emitted; id++ {
		switch c := counts[id]; {
		case c == 0:
			lost++
		case c > 1:
			dup += c - 1
		}
	}
	if dup != 0 || lost != 0 {
		t.Fatalf("rescale broke exactly-once: %d duplicated, %d lost of %d emitted", dup, lost, emitted)
	}
}

// TestPartitionedMetrics: every partition-instance registers its own
// metric series under its ".p<k>" spec ID — per-partition queue depths,
// lifecycle and checkpoint state — plus the stage's shared routing table;
// an instance added by ScaleOut self-registers in the same registry.
func TestPartitionedMetrics(t *testing.T) {
	cl, p := buildRescaleTestbed(t)
	reg := metrics.NewRegistry()
	p.RegisterMetrics(reg)
	clk := cl.Clock()
	clk.Sleep(200 * time.Millisecond)

	names := make(map[string]bool)
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, want := range []string{
		"partition/rescale/s0",
		"subjob/rescale/sj0.p0/primary",
		"subjob/rescale/sj0.p1/primary",
		"ha/rescale/sj0.p0",
		"ha/rescale/sj0.p1",
		"checkpoint/rescale/sj0.p0",
	} {
		if !names[want] {
			t.Fatalf("registry missing %q; have %v", want, reg.Names())
		}
	}
	snap := reg.Snapshot()
	st, ok := snap["partition/rescale/s0"].(queue.PartitionerStats)
	if !ok {
		t.Fatalf("partition metric snapshot is %T", snap["partition/rescale/s0"])
	}
	if st.Instances != 2 || st.Partitions != queue.DefaultPartitions {
		t.Fatalf("partition stats %+v", st)
	}

	if _, err := p.ScaleOut(0, ha.RescalePlacement{Primary: "p-new", Secondary: "s-new"}); err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	names = make(map[string]bool)
	for _, n := range reg.Names() {
		names[n] = true
	}
	if !names["subjob/rescale/sj0.p2/primary"] || !names["ha/rescale/sj0.p2"] {
		t.Fatalf("ScaleOut did not self-register the new instance; have %v", reg.Names())
	}
	if st := reg.Snapshot()["partition/rescale/s0"].(queue.PartitionerStats); st.Instances != 3 {
		t.Fatalf("partition stats after rescale %+v", st)
	}
}

// TestRescaleRejections pins ScaleOut's safety refusals: active-standby
// stages (the twin would fork under a one-sided pause), unkeyed stages,
// and stages that are not last in the chain.
func TestRescaleRejections(t *testing.T) {
	cl := cluster.New(cluster.Config{Latency: 100 * time.Microsecond})
	defer cl.Close()
	for _, m := range []string{"m-src", "m-sink", "a0", "a1", "b0", "x"} {
		cl.MustAddMachine(m)
	}
	counter := func() pe.Logic { return &pe.CounterLogic{} }
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "rej",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 500, Tick: 2 * time.Millisecond},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{
			{
				PEs:         []subjob.PESpec{{Name: "pe", NewLogic: counter, Cost: time.Microsecond}},
				Mode:        ha.ModeNone,
				Parallelism: 2,
				Primaries:   []string{"a0", "a1"},
			},
			{
				PEs:     []subjob.PESpec{{Name: "pe", NewLogic: counter, Cost: time.Microsecond}},
				Mode:    ha.ModeNone,
				Primary: "b0",
			},
		},
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer p.Stop()
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	pl := ha.RescalePlacement{Primary: "x"}
	if _, err := p.ScaleOut(0, pl); err == nil {
		t.Fatal("ScaleOut accepted a mid-chain stage")
	}
	if _, err := p.ScaleOut(1, pl); err == nil {
		t.Fatal("ScaleOut accepted an unkeyed stage")
	}
}

// TestRescaleRejectsActive: an active-standby keyed stage must refuse to
// rescale live.
func TestRescaleRejectsActive(t *testing.T) {
	cl := cluster.New(cluster.Config{Latency: 100 * time.Microsecond})
	defer cl.Close()
	for _, m := range []string{"m-src", "m-sink", "a0", "a1", "t0", "t1", "x"} {
		cl.MustAddMachine(m)
	}
	counter := func() pe.Logic { return &pe.CounterLogic{} }
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "rej-active",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 500, Tick: 2 * time.Millisecond},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs:         []subjob.PESpec{{Name: "pe", NewLogic: counter, Cost: time.Microsecond}},
			Mode:        ha.ModeActive,
			Parallelism: 2,
			Primaries:   []string{"a0", "a1"},
			Secondaries: []string{"t0", "t1"},
		}},
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	defer p.Stop()
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := p.ScaleOut(0, ha.RescalePlacement{Primary: "x"}); err == nil {
		t.Fatal("ScaleOut accepted an active-standby stage")
	}
}

// TestRescaleValidatesPlacementFirst: a ScaleOut that names an unknown
// primary, secondary or spare machine fails before it deploys anything —
// no instance joins the stage, no output stream joins the sink's link and
// no partition moves — so a corrected retry rescales exactly once.
func TestRescaleValidatesPlacementFirst(t *testing.T) {
	cl, p := buildRescaleTestbed(t)
	clk := cl.Clock()
	clk.Sleep(200 * time.Millisecond)

	split := p.StagePartitioner(0)
	ownership := func() [][]int {
		var o [][]int
		for k := 0; k < split.Instances(); k++ {
			o = append(o, split.OwnedBy(k))
		}
		return o
	}
	owned, links := ownership(), p.LinkStreams(1)
	for _, pl := range []ha.RescalePlacement{
		{Primary: "nowhere", Secondary: "s-new"},
		{Primary: "p-new", Secondary: "nowhere"},
		{Primary: "p-new", Secondary: "s-new", Spare: "nowhere"},
	} {
		if _, err := p.ScaleOut(0, pl); err == nil {
			t.Fatalf("ScaleOut accepted %+v", pl)
		}
		if n := len(p.StageInstances(0)); n != 2 {
			t.Fatalf("after %+v the stage has %d instances, want 2", pl, n)
		}
		if got := p.LinkStreams(1); !reflect.DeepEqual(got, links) {
			t.Fatalf("after %+v the sink's link is %v, want %v", pl, got, links)
		}
		if got := ownership(); !reflect.DeepEqual(got, owned) {
			t.Fatalf("after %+v partition ownership is %v, want %v", pl, got, owned)
		}
	}

	if _, err := p.ScaleOut(0, ha.RescalePlacement{Primary: "p-new", Secondary: "s-new"}); err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	clk.Sleep(300 * time.Millisecond)
	drainPipeline(p, clk)
	verifyExactlyOnce(t, p, 1)
	if got, emitted := len(p.Sink().IDCounts()), p.Source().Emitted(); uint64(got) != emitted {
		t.Fatalf("sink holds %d of %d emitted elements", got, emitted)
	}
}
