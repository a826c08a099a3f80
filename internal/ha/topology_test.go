package ha_test

import (
	"testing"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/ha"
)

// diamondTopology builds source → split → {branch-a (hybrid), branch-b} →
// merge → sink through the DAG builder.
func diamondTopology(t *testing.T, mode ha.Mode) (*cluster.Cluster, *ha.Topology) {
	t.Helper()
	cl := cluster.New(cluster.Config{Latency: 100 * time.Microsecond})
	for _, id := range []string{"m-src", "m-sink", "m-split", "m-a", "m-a2", "m-b", "m-merge"} {
		cl.MustAddMachine(id)
	}
	topo, err := ha.NewTopology(ha.TopologyConfig{
		Cluster: cl,
		JobID:   "dag",
		Sources: []ha.TopologySource{{Name: "feed", Machine: "m-src", Rate: 2000}},
		Subjobs: []ha.TopologySubjob{
			{ID: "split", Inputs: []string{"feed"}, PEs: cheapPEs(1), Mode: ha.ModeNone, Primary: "m-split", BatchSize: 16},
			{ID: "a", Inputs: []string{"split"}, PEs: cheapPEs(1), Mode: mode, Primary: "m-a", Secondary: "m-a2", BatchSize: 16},
			{ID: "b", Inputs: []string{"split"}, PEs: cheapPEs(1), Mode: ha.ModeNone, Primary: "m-b", BatchSize: 16},
			{ID: "merge", Inputs: []string{"a", "b"}, PEs: cheapPEs(1), Mode: ha.ModeNone, Primary: "m-merge", BatchSize: 16},
		},
		Sinks: []ha.TopologySink{{Name: "out", Machine: "m-sink", Inputs: []string{"merge"}, TrackIDs: true}},
	})
	if err != nil {
		t.Fatalf("NewTopology: %v", err)
	}
	if err := topo.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		topo.Stop()
		cl.Close()
	})
	return cl, topo
}

// verifyDiamondDelivery checks every source ID reached the sink exactly
// twice (once per branch) with no gaps.
func verifyDiamondDelivery(t *testing.T, topo *ha.Topology, minIDs int) {
	t.Helper()
	sink := topo.Sink("out")
	counts := sink.IDCounts()
	if len(counts) < minIDs {
		t.Fatalf("sink saw %d ids, want at least %d", len(counts), minIDs)
	}
	var max uint64
	for id := range counts {
		if id > max {
			max = id
		}
	}
	for id := uint64(1); id <= max; id++ {
		if counts[id] != 2 {
			t.Fatalf("id %d delivered %d times, want 2 (one per branch)", id, counts[id])
		}
	}
	if _, gaps := sink.In().Drops(); gaps != 0 {
		t.Fatalf("%d gaps at sink", gaps)
	}
}

func TestTopologyDiamondSteadyState(t *testing.T) {
	_, topo := diamondTopology(t, ha.ModeNone)
	time.Sleep(700 * time.Millisecond)
	topo.Source("feed").Stop()
	time.Sleep(300 * time.Millisecond)
	verifyDiamondDelivery(t, topo, 800)
}

func TestTopologyDiamondHybridBranchSurvivesStall(t *testing.T) {
	cl, topo := diamondTopology(t, ha.ModeHybrid)
	time.Sleep(400 * time.Millisecond)

	cl.Machine("m-a").CPU().SetBackgroundLoad(1)
	time.Sleep(300 * time.Millisecond)
	cl.Machine("m-a").CPU().SetBackgroundLoad(0)
	time.Sleep(500 * time.Millisecond)
	topo.Source("feed").Stop()
	time.Sleep(400 * time.Millisecond)

	if len(topo.Group("a").HA.Switches()) == 0 {
		t.Fatal("hybrid branch never switched")
	}
	verifyDiamondDelivery(t, topo, 800)
}

func TestTopologyDiamondActiveBranch(t *testing.T) {
	cl, topo := diamondTopology(t, ha.ModeActive)
	time.Sleep(300 * time.Millisecond)
	cl.Machine("m-a").CPU().SetBackgroundLoad(1)
	time.Sleep(250 * time.Millisecond)
	cl.Machine("m-a").CPU().SetBackgroundLoad(0)
	time.Sleep(400 * time.Millisecond)
	topo.Source("feed").Stop()
	time.Sleep(300 * time.Millisecond)
	verifyDiamondDelivery(t, topo, 600)
}

func TestTopologyRejectsCycles(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"m-src", "m-sink", "m-a", "m-b"} {
		cl.MustAddMachine(id)
	}
	_, err := ha.NewTopology(ha.TopologyConfig{
		Cluster: cl,
		JobID:   "dag",
		Sources: []ha.TopologySource{{Name: "s", Machine: "m-src", Rate: 100}},
		Subjobs: []ha.TopologySubjob{
			{ID: "a", Inputs: []string{"s", "b"}, PEs: cheapPEs(1), Primary: "m-a"},
			{ID: "b", Inputs: []string{"a"}, PEs: cheapPEs(1), Primary: "m-b"},
		},
		Sinks: []ha.TopologySink{{Name: "out", Machine: "m-sink", Inputs: []string{"b"}}},
	})
	if err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestTopologyRejectsUnknownInput(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"m-src", "m-sink", "m-a"} {
		cl.MustAddMachine(id)
	}
	_, err := ha.NewTopology(ha.TopologyConfig{
		Cluster: cl,
		JobID:   "dag",
		Sources: []ha.TopologySource{{Name: "s", Machine: "m-src", Rate: 100}},
		Subjobs: []ha.TopologySubjob{
			{ID: "a", Inputs: []string{"ghost"}, PEs: cheapPEs(1), Primary: "m-a"},
		},
		Sinks: []ha.TopologySink{{Name: "out", Machine: "m-sink", Inputs: []string{"a"}}},
	})
	if err == nil {
		t.Fatal("unknown input accepted")
	}
}

func TestTopologyRejectsDuplicateNames(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"m-src", "m-sink", "m-a"} {
		cl.MustAddMachine(id)
	}
	_, err := ha.NewTopology(ha.TopologyConfig{
		Cluster: cl,
		JobID:   "dag",
		Sources: []ha.TopologySource{{Name: "x", Machine: "m-src", Rate: 100}},
		Subjobs: []ha.TopologySubjob{
			{ID: "x", Inputs: []string{"x"}, PEs: cheapPEs(1), Primary: "m-a"},
		},
		Sinks: []ha.TopologySink{{Name: "out", Machine: "m-sink", Inputs: []string{"x"}}},
	})
	if err == nil {
		t.Fatal("duplicate node name accepted")
	}
}

func TestTopologyRejectsWithoutLeak(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"m-src", "m-sink", "m-a", "m-a2"} {
		cl.MustAddMachine(id)
	}
	topology := func(bPrimary, sinkMachine string) func() error {
		return func() error {
			_, err := ha.NewTopology(ha.TopologyConfig{
				Cluster: cl,
				JobID:   "dag",
				Sources: []ha.TopologySource{{Name: "feed", Machine: "m-src", Rate: 100}},
				Subjobs: []ha.TopologySubjob{
					{ID: "a", Inputs: []string{"feed"}, PEs: cheapPEs(2), Mode: ha.ModeHybrid, Primary: "m-a", Secondary: "m-a2"},
					{ID: "b", Inputs: []string{"a"}, PEs: cheapPEs(1), Primary: bPrimary},
				},
				Sinks: []ha.TopologySink{{Name: "out", Machine: sinkMachine, Inputs: []string{"b"}}},
			})
			return err
		}
	}
	rejectsWithoutLeak(t, "unknown sink machine", topology("m-a", "ghost"))
	rejectsWithoutLeak(t, "unknown primary in a later subjob", topology("ghost", "m-sink"))
}

func TestTopologyOrderIsTopological(t *testing.T) {
	_, topo := diamondTopology(t, ha.ModeNone)
	pos := map[string]int{}
	for i, id := range topo.Order() {
		pos[id] = i
	}
	if !(pos["split"] < pos["a"] && pos["split"] < pos["b"] && pos["a"] < pos["merge"] && pos["b"] < pos["merge"]) {
		t.Fatalf("order %v not topological", topo.Order())
	}
}

func TestTopologyRejectsUnknownSpare(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	for _, id := range []string{"m-src", "m-sink", "m-a", "m-a2"} {
		cl.MustAddMachine(id)
	}
	_, err := ha.NewTopology(ha.TopologyConfig{
		Cluster: cl,
		JobID:   "dag",
		Sources: []ha.TopologySource{{Name: "s", Machine: "m-src", Rate: 100}},
		Subjobs: []ha.TopologySubjob{
			{ID: "a", Inputs: []string{"s"}, PEs: cheapPEs(1), Mode: ha.ModeHybrid,
				Primary: "m-a", Secondary: "m-a2", Spare: "ghost"},
		},
		Sinks: []ha.TopologySink{{Name: "out", Machine: "m-sink", Inputs: []string{"a"}}},
	})
	if err == nil {
		t.Fatal("unknown spare machine accepted")
	}
}
