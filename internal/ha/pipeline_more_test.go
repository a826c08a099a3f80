package ha_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

func cheapPEs(n int) []subjob.PESpec {
	pes := make([]subjob.PESpec, n)
	for i := range pes {
		pes[i] = subjob.PESpec{
			Name:     "pe",
			NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 5} },
			Cost:     10 * time.Microsecond,
		}
	}
	return pes
}

// peLoops counts the PE loop goroutines, pe.(*PE).run. They are matched
// by their creator, because one not yet scheduled shows no run frame.
func peLoops() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "created by streamha/internal/pe.(*PE).Start")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// leavesNoPELoop runs run and checks that, within 2 s, no PE loop it
// started is left running.
func leavesNoPELoop(t *testing.T, what string, run func()) {
	t.Helper()
	before := peLoops()
	run()
	deadline := time.Now().Add(2 * time.Second)
	for peLoops() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d PE loops running", what, peLoops()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rejectsWithoutLeak checks that build fails and that, within 2 s, no PE
// loop it started is left running.
func rejectsWithoutLeak(t *testing.T, what string, build func() error) {
	t.Helper()
	leavesNoPELoop(t, what+" rejected", func() {
		if build() == nil {
			t.Fatalf("%s accepted", what)
		}
	})
}

func TestPipelineRejectsUnknownMachines(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	cl.MustAddMachine("src")
	cl.MustAddMachine("sink")
	cl.MustAddMachine("p0")
	cl.MustAddMachine("s0")

	base := ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "j",
		Source:      ha.SourceDef{Machine: "src", Rate: 100},
		SinkMachine: "sink",
	}
	rejects := func(what string, cfg ha.PipelineConfig) {
		t.Helper()
		rejectsWithoutLeak(t, what, func() error {
			_, err := ha.NewPipeline(cfg)
			return err
		})
	}

	cfg := base
	cfg.Subjobs = []ha.SubjobDef{{PEs: cheapPEs(1), Primary: "ghost"}}
	rejects("unknown primary", cfg)

	cfg = base
	cfg.Subjobs = []ha.SubjobDef{{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "ghost"}}
	rejects("unknown secondary", cfg)

	cfg = base
	cfg.Subjobs = []ha.SubjobDef{
		{PEs: cheapPEs(2), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "s0"},
		{PEs: cheapPEs(1), Primary: "ghost"},
	}
	rejects("unknown primary in a later stage", cfg)

	cfg = base
	cfg.Source.Machine = "ghost"
	cfg.Subjobs = []ha.SubjobDef{{PEs: cheapPEs(1), Primary: "p0"}}
	rejects("unknown source machine", cfg)

	cfg = base
	cfg.SinkMachine = "ghost"
	cfg.Subjobs = []ha.SubjobDef{{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "s0"}}
	rejects("unknown sink machine", cfg)

	cfg = base
	cfg.Subjobs = nil
	rejects("empty chain", cfg)

	cfg = base
	cfg.Subjobs = []ha.SubjobDef{
		{ID: "x", PEs: cheapPEs(2), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "s0"},
		{ID: "x", PEs: cheapPEs(1), Primary: "p0"},
	}
	rejects("duplicate subjob ID", cfg)
}

// TestStopBeforeStartLeavesNoPELoop: a job built and stopped without ever
// starting stops the copies the build started, though their lifecycles
// never ran.
func TestStopBeforeStartLeavesNoPELoop(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"src", "sink", "p0", "s0", "p1"} {
		cl.MustAddMachine(id)
	}
	leavesNoPELoop(t, "chain stopped before start", func() {
		p, err := ha.NewPipeline(ha.PipelineConfig{
			Cluster:     cl,
			JobID:       "j",
			Source:      ha.SourceDef{Machine: "src", Rate: 100},
			SinkMachine: "sink",
			Subjobs: []ha.SubjobDef{
				{PEs: cheapPEs(2), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "s0"},
				{PEs: cheapPEs(1), Primary: "p1"},
			},
		})
		if err != nil {
			t.Fatalf("NewPipeline: %v", err)
		}
		p.Stop()
	})
	leavesNoPELoop(t, "DAG stopped before start", func() {
		topo, err := ha.NewTopology(ha.TopologyConfig{
			Cluster: cl,
			JobID:   "dag",
			Sources: []ha.TopologySource{{Name: "feed", Machine: "src", Rate: 100}},
			Subjobs: []ha.TopologySubjob{
				{ID: "a", Inputs: []string{"feed"}, PEs: cheapPEs(2), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "s0"},
				{ID: "b", Inputs: []string{"feed"}, PEs: cheapPEs(1), Primary: "p1"},
			},
			Sinks: []ha.TopologySink{{Name: "out", Machine: "sink", Inputs: []string{"a", "b"}}},
		})
		if err != nil {
			t.Fatalf("NewTopology: %v", err)
		}
		topo.Stop()
	})
}

func TestActiveStandbyTrafficMultiplier(t *testing.T) {
	run := func(mode ha.Mode) int64 {
		cl := cluster.New(cluster.Config{})
		defer cl.Close()
		for _, id := range []string{"src", "sink", "p0", "p1", "s0", "s1"} {
			cl.MustAddMachine(id)
		}
		p, err := ha.NewPipeline(ha.PipelineConfig{
			Cluster:     cl,
			JobID:       "j",
			Source:      ha.SourceDef{Machine: "src", Rate: 2000},
			SinkMachine: "sink",
			Subjobs: []ha.SubjobDef{
				{PEs: cheapPEs(1), Mode: mode, Primary: "p0", Secondary: "s0"},
				{PEs: cheapPEs(1), Mode: mode, Primary: "p1", Secondary: "s1"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		time.Sleep(200 * time.Millisecond)
		before := cl.Stats()
		time.Sleep(600 * time.Millisecond)
		return cl.Stats().Sub(before).DataElements()
	}

	none := run(ha.ModeNone)
	as := run(ha.ModeActive)
	// Chain of 2 subjobs: src->sj0 (2x), sj0->sj1 (4x), sj1->sink (2x):
	// expected AS multiplier (2+4+2)/3 ≈ 2.7.
	ratio := float64(as) / float64(none)
	if ratio < 2.0 || ratio > 3.6 {
		t.Fatalf("AS data traffic ratio %.2f, want ~2.7", ratio)
	}
}

func TestHybridMultiplexedSecondariesShareOneMachine(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"src", "sink", "p0", "p1", "p2", "shared"} {
		cl.MustAddMachine(id)
	}
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "j",
		Source:      ha.SourceDef{Machine: "src", Rate: 1000},
		SinkMachine: "sink",
		Subjobs: []ha.SubjobDef{
			{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "shared"},
			{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p1", Secondary: "shared"},
			{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p2", Secondary: "shared"},
		},
		TrackIDs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	time.Sleep(400 * time.Millisecond)

	for i, g := range p.Groups() {
		sec := g.SecondaryRuntime()
		if sec == nil || string(sec.Node()) != "shared" {
			t.Fatalf("group %d standby not on the shared machine", i)
		}
		if !sec.Suspended() {
			t.Fatalf("group %d standby not suspended", i)
		}
	}

	// Stall one primary: only its standby activates; the others stay
	// suspended on the shared machine.
	cl.Machine("p1").CPU().SetBackgroundLoad(1)
	time.Sleep(300 * time.Millisecond)
	cl.Machine("p1").CPU().SetBackgroundLoad(0)
	time.Sleep(400 * time.Millisecond)
	if len(p.Group(1).HA.Switches()) == 0 {
		t.Fatal("stalled group never switched")
	}

	p.Source().Stop()
	time.Sleep(300 * time.Millisecond)
	for id, n := range p.Sink().IDCounts() {
		if n != 1 {
			t.Fatalf("element %d delivered %d times", id, n)
		}
	}
}

func TestGroupAccessors(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"src", "sink", "p0", "s0"} {
		cl.MustAddMachine(id)
	}
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "j",
		Source:      ha.SourceDef{Machine: "src", Rate: 100},
		SinkMachine: "sink",
		Subjobs:     []ha.SubjobDef{{PEs: cheapPEs(1), Mode: ha.ModeActive, Primary: "p0", Secondary: "s0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	g := p.Group(0)
	if g.PrimaryRuntime() == nil || g.SecondaryRuntime() == nil {
		t.Fatal("AS group accessors nil")
	}
	if len(g.LiveOutputs()) != 2 {
		t.Fatalf("AS live outputs %d", len(g.LiveOutputs()))
	}
	targets := g.ConsumerTargets(p.Streams()[0])
	if len(targets) != 2 || !targets[0].Active || !targets[1].Active {
		t.Fatalf("AS consumer targets %+v", targets)
	}
	if len(p.Streams()) != 2 {
		t.Fatalf("streams %v", p.Streams())
	}
	if p.Groups()[0] != g {
		t.Fatal("Groups/Group disagree")
	}
}

func TestHybridSecondaryEarlyConnectionsExist(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"src", "sink", "p0", "s0"} {
		cl.MustAddMachine(id)
	}
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "j",
		Source:      ha.SourceDef{Machine: "src", Rate: 500},
		SinkMachine: "sink",
		Subjobs:     []ha.SubjobDef{{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "s0"}},
		Hybrid:      core.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	time.Sleep(200 * time.Millisecond)

	// The source's output queue has an inactive subscription for the
	// standby ("early connection"): data flows only to the primary.
	if _, ok := p.Source().Out().AckedBy(transport.NodeID("s0")); !ok {
		t.Fatal("standby early connection missing on the source output queue")
	}
	sec := p.Group(0).SecondaryRuntime()
	if sec.PEs()[0].Processed() != 0 {
		t.Fatal("suspended standby processed data through an inactive connection")
	}
}
