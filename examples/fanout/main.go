// Command fanout deploys a DAG job through the streamha.NewTopology API:
// one event feed fans out to an alerting branch and an analytics branch
// that merge into a dashboard sink, with the stateful analytics branch
// protected by the hybrid method. Tree topologies are the paper's stated
// future work; the acknowledgment/trimming protocol supports them
// natively (an output queue trims only when every consumer acknowledged).
// The program exits 1 unless, after a drain, every event up to the last one
// seen reached the dashboard exactly twice.
package main

import (
	"fmt"
	"log"
	"time"

	"streamha"
)

func main() {
	cl := streamha.NewCluster(streamha.ClusterConfig{Latency: 200 * time.Microsecond})
	for _, id := range []string{"feed", "dash", "m-enrich", "m-alerts", "m-stats", "m-stats2", "m-join"} {
		cl.MustAddMachine(id)
	}
	defer cl.Close()

	pes := func(cost time.Duration, pad int) []streamha.PESpec {
		return []streamha.PESpec{{
			Name:     "op",
			NewLogic: func() streamha.Logic { return &streamha.CounterLogic{Pad: pad} },
			Cost:     cost,
		}}
	}

	topo, err := streamha.NewTopology(streamha.TopologyConfig{
		Cluster: cl,
		JobID:   "fanout",
		Sources: []streamha.TopologySource{{Name: "events", Machine: "feed", Rate: 2000}},
		Subjobs: []streamha.TopologySubjob{
			{ID: "enrich", Inputs: []string{"events"}, PEs: pes(50*time.Microsecond, 0), Mode: streamha.None, Primary: "m-enrich"},
			{ID: "alerts", Inputs: []string{"enrich"}, PEs: pes(80*time.Microsecond, 0), Mode: streamha.None, Primary: "m-alerts"},
			{
				ID: "stats", Inputs: []string{"enrich"},
				PEs:  pes(150*time.Microsecond, 100), // stateful: protect it
				Mode: streamha.Hybrid, Primary: "m-stats", Secondary: "m-stats2",
			},
			{ID: "join", Inputs: []string{"alerts", "stats"}, PEs: pes(60*time.Microsecond, 0), Mode: streamha.None, Primary: "m-join"},
		},
		Sinks: []streamha.TopologySink{{Name: "dashboard", Machine: "dash", Inputs: []string{"join"}, TrackIDs: true}},
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	if err := topo.Start(); err != nil {
		log.Fatalf("start: %v", err)
	}
	defer topo.Stop()

	fmt.Println("DAG: events -> enrich -> {alerts, stats(hybrid)} -> join -> dashboard")
	time.Sleep(time.Second)

	fmt.Println("stalling the stats branch primary for 500 ms ...")
	cl.Machine("m-stats").CPU().SetBackgroundLoad(1.0)
	time.Sleep(500 * time.Millisecond)
	cl.Machine("m-stats").CPU().SetBackgroundLoad(0)
	time.Sleep(800 * time.Millisecond)

	topo.Source("events").Stop()
	time.Sleep(400 * time.Millisecond)

	g := topo.Group("stats")
	sink := topo.Sink("dashboard")
	fmt.Printf("switchovers on the stats branch: %d (rollbacks: %d)\n",
		len(g.HA.Switches()), len(g.HA.Rollbacks()))
	fmt.Printf("dashboard received %d elements, mean delay %.1f ms\n",
		sink.Received(), sink.Delays().Mean().Seconds()*1e3)

	// Each source event reaches the dashboard twice: once per branch. After
	// the drain, every ID up to the highest one seen must have done so.
	counts := sink.IDCounts()
	var max uint64
	for id := range counts {
		if id > max {
			max = id
		}
	}
	wrong := 0
	for id := uint64(1); id <= max; id++ {
		if counts[id] != 2 {
			wrong++
		}
	}
	fmt.Printf("per-branch exactly-once: %d ids delivered twice, %d not\n", int(max)-wrong, wrong)
	if wrong > 0 {
		log.Fatal("per-branch exactly-once audit failed")
	}
}
