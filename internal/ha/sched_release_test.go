package ha_test

import (
	"strings"
	"testing"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// scheduledFourWorkers is a cluster whose four workers (two per rack, two
// slots each) are placed by a three-replica scheduler.
func scheduledFourWorkers(t *testing.T) (*cluster.Cluster, *sched.Scheduler) {
	t.Helper()
	cl := cluster.New(cluster.Config{Latency: 200 * time.Microsecond})
	cl.MustAddMachine("m-src")
	cl.MustAddMachine("m-sink")
	s, err := sched.New(sched.Config{
		Clock: cl.Clock(),
		Replicas: []*machine.Machine{
			cl.MustAddMachine("sched-a"),
			cl.MustAddMachine("sched-b"),
			cl.MustAddMachine("sched-c"),
		},
		Tick:            5 * time.Millisecond,
		ElectionTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	s.Start()
	cl.BindScheduler(s, 2)
	cl.MustAddMachineIn("w1", "rack-a")
	cl.MustAddMachineIn("w2", "rack-a")
	cl.MustAddMachineIn("w3", "rack-b")
	cl.MustAddMachineIn("w4", "rack-b")
	t.Cleanup(func() {
		s.Stop()
		cl.Close()
	})
	return cl, s
}

// twoStageHybrid is a scheduler-placed two-stage hybrid chain; spare names
// stage 2's spare host ("" for none).
func twoStageHybrid(cl *cluster.Cluster, s *sched.Scheduler, spare string) ha.PipelineConfig {
	newPEs := func() []subjob.PESpec {
		return []subjob.PESpec{
			{Name: "pe-a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 10} }, Cost: 10 * time.Microsecond},
		}
	}
	return ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "slots",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 500},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{
			{PEs: newPEs(), Mode: ha.ModeHybrid, BatchSize: 16},
			{PEs: newPEs(), Mode: ha.ModeHybrid, BatchSize: 16, Spare: spare},
		},
		Hybrid: core.Options{
			HeartbeatInterval:  20 * time.Millisecond,
			CheckpointInterval: 10 * time.Millisecond,
		},
		Scheduler: s,
	}
}

// heldSlots lists the scheduler's committed assignments of job "slots".
func heldSlots(s *sched.Scheduler) []string {
	var held []string
	for slot, m := range s.View().Assignments {
		if strings.HasPrefix(slot, "slots/") {
			held = append(held, slot+"@"+m)
		}
	}
	return held
}

// A chain built on scheduler-placed machines and stopped without Start
// hands every slot its build took back to the scheduler.
func TestSchedSlotsReleasedWhenStoppedUnstarted(t *testing.T) {
	cl, s := scheduledFourWorkers(t)
	p, err := ha.NewPipeline(twoStageHybrid(cl, s, ""))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	for _, sj := range []string{"slots/sj0", "slots/sj1"} {
		for _, role := range []sched.Role{sched.RolePrimary, sched.RoleStandby} {
			if _, ok := s.Assignment(sj, role); !ok {
				t.Fatalf("%s %s not placed by the build", sj, role)
			}
		}
	}
	p.Stop()
	if held := heldSlots(s); len(held) != 0 {
		t.Fatalf("slots still held after Stop without Start: %v", held)
	}
}

// A build rejected for an unknown spare in stage 2 — after both stages'
// primaries and standbys were placed — leaves no slot held.
func TestSchedSlotsReleasedWhenBuildRejected(t *testing.T) {
	cl, s := scheduledFourWorkers(t)
	if _, err := ha.NewPipeline(twoStageHybrid(cl, s, "no-such-spare")); err == nil {
		t.Fatal("NewPipeline accepted an unknown spare")
	}
	if held := heldSlots(s); len(held) != 0 {
		t.Fatalf("slots still held after a rejected build: %v", held)
	}
}
