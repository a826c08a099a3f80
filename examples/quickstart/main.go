// Command quickstart is the smallest end-to-end streamha program: a
// two-subjob pipeline protected by the hybrid method, a transient failure
// injected on one primary, and the resulting switchover/rollback cycle and
// delay impact printed. It exits 1 unless the failure caused at least one
// switchover and one rollback.
package main

import (
	"fmt"
	"log"
	"time"

	"streamha"
)

func main() {
	// A cluster of six simulated machines on a 200 µs LAN.
	cl := streamha.NewCluster(streamha.ClusterConfig{Latency: 200 * time.Microsecond})
	for _, id := range []string{"src", "sink", "p0", "p1", "s0", "s1"} {
		cl.MustAddMachine(id)
	}
	defer cl.Close()

	// Each subjob runs two stateful counting PEs costing 300 µs per element.
	pes := func() []streamha.PESpec {
		return []streamha.PESpec{
			{Name: "count-a", NewLogic: func() streamha.Logic { return &streamha.CounterLogic{Pad: 50} }, Cost: 300 * time.Microsecond},
			{Name: "count-b", NewLogic: func() streamha.Logic { return &streamha.CounterLogic{Pad: 50} }, Cost: 300 * time.Microsecond},
		}
	}

	pipe, err := streamha.NewPipeline(streamha.PipelineConfig{
		Cluster:     cl,
		JobID:       "quickstart",
		Source:      streamha.SourceDef{Machine: "src", Rate: 1000},
		SinkMachine: "sink",
		Subjobs: []streamha.SubjobDef{
			{PEs: pes(), Mode: streamha.Hybrid, Primary: "p0", Secondary: "s0"},
			{PEs: pes(), Mode: streamha.Hybrid, Primary: "p1", Secondary: "s1"},
		},
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	if err := pipe.Start(); err != nil {
		log.Fatalf("start: %v", err)
	}
	defer pipe.Stop()

	// Normal conditions.
	time.Sleep(1 * time.Second)
	healthy := pipe.Sink().Delays().Mean()
	fmt.Printf("steady state: %d elements delivered, mean delay %.1f ms\n",
		pipe.Sink().Received(), healthy.Seconds()*1e3)

	// A transient failure: co-located load pins p0 at ~100% CPU for 800 ms.
	fmt.Println("injecting an 800 ms CPU spike on p0 ...")
	spikeStart := time.Now()
	cl.Machine("p0").CPU().SetBackgroundLoad(1.0)
	time.Sleep(800 * time.Millisecond)
	cl.Machine("p0").CPU().SetBackgroundLoad(0)
	time.Sleep(1 * time.Second)

	g := pipe.Group(0)
	switches, rollbacks := g.HA.Switches(), g.HA.Rollbacks()
	for i, sw := range switches {
		fmt.Printf("switchover %d: detected %.1f ms into the failure, standby active %.1f ms later\n",
			i+1, sw.DetectedAt.Sub(spikeStart).Seconds()*1e3, sw.ReadyAt.Sub(sw.DetectedAt).Seconds()*1e3)
	}
	for i, rb := range rollbacks {
		fmt.Printf("rollback %d: %.1f ms, %d element-units of state read back (adopted=%v)\n",
			i+1, rb.DoneAt.Sub(rb.StartedAt).Seconds()*1e3, rb.StateUnits, rb.Adopted)
	}
	fmt.Printf("after recovery: %d elements delivered, overall mean delay %.1f ms (p99 %.1f ms)\n",
		pipe.Sink().Received(),
		pipe.Sink().Delays().Mean().Seconds()*1e3,
		pipe.Sink().Delays().Percentile(99).Seconds()*1e3)

	// The spike must have driven the hybrid cycle at least once: a
	// switchover to the standby, then a rollback to the primary.
	if len(switches) == 0 || len(rollbacks) == 0 {
		log.Fatalf("the spike caused %d switchovers and %d rollbacks; want at least one of each", len(switches), len(rollbacks))
	}
}
