// Command scheduled demonstrates consensus-backed, fault-domain-aware
// placement: a pipeline whose subjobs name no machines, resolved by the
// cluster scheduler with primary and standby always in different racks.
// Two injected machine failures — first the standby's host (a crash the
// heartbeat detector cannot see, because it lived there), then the
// primary's — each end in an automatic re-arm onto fresh capacity, where
// static placement would have settled unprotected. The program prints
// every placement and re-arm decision and ends with an exactly-once
// audit and a check that stopping the job handed every scheduler slot
// back; it exits 1 if either fails.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"streamha"
)

func main() {
	// Three racks of two workers each, plus source, sink and three
	// placement-log replicas. The log replicas are added before the
	// scheduler is bound, keeping them outside the schedulable pool.
	cl := streamha.NewCluster(streamha.ClusterConfig{Latency: 200 * time.Microsecond})
	defer cl.Close()
	cl.MustAddMachine("src")
	cl.MustAddMachine("sink")
	sch, err := streamha.NewScheduler(streamha.SchedulerConfig{
		Clock: cl.Clock(),
		Replicas: []*streamha.Machine{
			cl.MustAddMachine("sched-a"),
			cl.MustAddMachine("sched-b"),
			cl.MustAddMachine("sched-c"),
		},
		Tick:            5 * time.Millisecond,
		ElectionTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("scheduler: %v", err)
	}
	sch.Start()
	defer sch.Stop()
	cl.BindScheduler(sch, 2) // machines added from here on are schedulable
	for id, rack := range map[string]string{
		"w1": "rack-a", "w2": "rack-a",
		"w3": "rack-b", "w4": "rack-b",
		"w5": "rack-c", "w6": "rack-c",
	} {
		cl.MustAddMachineIn(id, rack)
	}

	// No Primary/Secondary names: the scheduler places both copies, never
	// in the same fault domain. RearmInterval is how often each lifecycle
	// health-checks its standby and repairs protection via the scheduler.
	pipe, err := streamha.NewPipeline(streamha.PipelineConfig{
		Cluster:     cl,
		JobID:       "scheduled",
		Source:      streamha.SourceDef{Machine: "src", Rate: 500},
		SinkMachine: "sink",
		Subjobs: []streamha.SubjobDef{{
			PEs: []streamha.PESpec{
				{Name: "count", NewLogic: func() streamha.Logic { return &streamha.CounterLogic{Pad: 100} }, Cost: 100 * time.Microsecond},
			},
			Mode:      streamha.Hybrid,
			BatchSize: 16,
		}},
		Hybrid: streamha.HybridOptions{
			HeartbeatInterval:  20 * time.Millisecond,
			CheckpointInterval: 10 * time.Millisecond,
			FailStopAfter:      120 * time.Millisecond,
		},
		TrackIDs:      true,
		Scheduler:     sch,
		RearmInterval: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	if err := pipe.Start(); err != nil {
		log.Fatalf("start: %v", err)
	}

	g := pipe.AllGroups()[0]
	where := func() (pri, sby string) {
		pri = string(g.HA.PrimaryRuntime().Machine().ID())
		if m := g.HA.StandbyMachine(); m != nil {
			sby = string(m.ID())
		}
		return
	}
	pri, sby := where()
	fmt.Printf("scheduler placed: primary=%s (%s)  standby=%s (%s)  leader=%s\n",
		pri, cl.Domain(pri), sby, cl.Domain(sby), sch.Leader())

	clk := cl.Clock()
	clk.Sleep(500 * time.Millisecond)

	// Failure 1: kill the standby's host. The detector lived there, so no
	// switchover fires — the periodic health check notices the dead
	// standby and the scheduler supplies a replacement outside the
	// primary's rack.
	fmt.Printf("\ncrashing standby host %s ...\n", sby)
	if err := cl.CrashMachine(sby); err != nil {
		log.Fatalf("crash: %v", err)
	}
	waitProtected(cl, g)
	pri, sby = where()
	fmt.Printf("re-armed: primary=%s (%s)  standby=%s (%s)\n", pri, cl.Domain(pri), sby, cl.Domain(sby))

	// Failure 2: kill the primary's host. One missed heartbeat switches
	// over, the persistent outage promotes the standby, and the scheduler
	// re-protects the promoted primary on yet another machine.
	fmt.Printf("\ncrashing primary host %s ...\n", pri)
	if err := cl.CrashMachine(pri); err != nil {
		log.Fatalf("crash: %v", err)
	}
	waitProtected(cl, g)
	pri, sby = where()
	fmt.Printf("failed over and re-armed: primary=%s (%s)  standby=%s (%s)\n",
		pri, cl.Domain(pri), sby, cl.Domain(sby))

	clk.Sleep(500 * time.Millisecond)

	// Every scheduler-driven protection repair, as the lifecycle saw it.
	fmt.Println("\nre-arm decisions:")
	for _, ev := range g.HA.Rearms() {
		fmt.Printf("  %s  new standby on %s\n", ev.At.Format("15:04:05.000"), ev.Host)
	}
	st := sch.Stats()
	fmt.Printf("scheduler: %d placements, %d denials, %d leader changes\n",
		st.Placements, st.Denials, st.LeaderChanges)

	// Exactly-once audit across both failures.
	pipe.Source().Stop()
	clk.Sleep(500 * time.Millisecond)
	emitted := pipe.Source().Emitted()
	counts := pipe.Sink().IDCounts()
	var dup, lost uint64
	for id := uint64(1); id <= emitted; id++ {
		switch c := counts[id]; {
		case c == 0:
			lost++
		case c > 1:
			dup += uint64(c - 1)
		}
	}
	fmt.Printf("audit: %d emitted, %d delivered, %d lost, %d duplicated\n",
		emitted, pipe.Sink().Received(), lost, dup)
	if lost > 0 || dup > 0 {
		log.Fatal("exactly-once audit failed")
	}

	// Stopping the job releases every slot it holds in the placement log.
	pipe.Stop()
	var held []string
	for slot, m := range sch.View().Assignments {
		if strings.HasPrefix(slot, "scheduled/") {
			held = append(held, slot+" on "+m)
		}
	}
	fmt.Printf("slots held after stop: %d\n", len(held))
	if len(held) > 0 {
		log.Fatalf("scheduler slots left after Stop: %v", held)
	}
}

// waitProtected polls until the group is Protected with live primary and
// standby machines — i.e. any in-flight failover and re-arm completed.
func waitProtected(cl *streamha.Cluster, g *streamha.Group) {
	clk := cl.Clock()
	for i := 0; i < 300; i++ {
		m := g.HA.StandbyMachine()
		if m != nil && !m.Crashed() && !g.HA.PrimaryRuntime().Machine().Crashed() &&
			g.HA.State().String() == "protected" {
			return
		}
		clk.Sleep(10 * time.Millisecond)
	}
	log.Fatal("subjob did not return to protected")
}
