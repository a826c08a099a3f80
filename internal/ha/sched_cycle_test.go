package ha_test

import (
	"fmt"
	"testing"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/failure"
	"streamha/internal/ha"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// buildScheduledTestbed deploys a two-subjob hybrid chain whose placement
// is entirely scheduler-resolved: three placement-log replicas outside
// the pool, six workers across three racks, no machine names in the
// subjob defs.
func buildScheduledTestbed(t *testing.T) (*cluster.Cluster, *sched.Scheduler, *ha.Pipeline) {
	t.Helper()
	return buildScheduledTestbedMode(t, ha.ModeHybrid)
}

// buildScheduledTestbedMode is buildScheduledTestbed with both subjobs in
// the given mode.
func buildScheduledTestbedMode(t *testing.T, mode ha.Mode) (*cluster.Cluster, *sched.Scheduler, *ha.Pipeline) {
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
	for id, rack := range map[string]string{
		"w1": "rack-a", "w2": "rack-a",
		"w3": "rack-b", "w4": "rack-b",
		"w5": "rack-c", "w6": "rack-c",
	} {
		cl.MustAddMachineIn(id, rack)
	}
	newPEs := func() []subjob.PESpec {
		return []subjob.PESpec{
			{Name: "pe-a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 10} }, Cost: 10 * time.Microsecond},
		}
	}
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "cycle",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 500},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{
			{PEs: newPEs(), Mode: mode, BatchSize: 16},
			{PEs: newPEs(), Mode: mode, BatchSize: 16},
		},
		Hybrid: core.Options{
			HeartbeatInterval:  20 * time.Millisecond,
			CheckpointInterval: 10 * time.Millisecond,
			FailStopAfter:      120 * time.Millisecond,
		},
		TrackIDs:      true,
		Scheduler:     s,
		RearmInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		p.Stop()
		s.Stop()
		cl.Close()
	})
	return cl, s, p
}

// hostsOf returns the machine IDs currently hosting a group's primary
// and standby ("" when no standby exists).
func hostsOf(g *ha.Group) (pri, sby string) {
	pri = string(g.HA.PrimaryRuntime().Machine().ID())
	if m := g.HA.StandbyMachine(); m != nil {
		sby = string(m.ID())
	}
	return
}

// waitProtectedGroups polls until every group is Protected with live
// primary and standby machines — any in-flight failover and re-arm done.
func waitProtectedGroups(cl *cluster.Cluster, groups []*ha.Group, timeout time.Duration) bool {
	clk := cl.Clock()
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		ok := true
		for _, g := range groups {
			secM := g.HA.StandbyMachine()
			if g.HA.State() != core.Protected || secM == nil || secM.Crashed() ||
				g.HA.PrimaryRuntime().Machine().Crashed() {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		clk.Sleep(10 * time.Millisecond)
	}
	return false
}

// assertAntiAffine fails if any group's primary and standby share a
// fault domain, or a group is missing its standby.
func assertAntiAffine(t *testing.T, cl *cluster.Cluster, groups []*ha.Group, when string) {
	t.Helper()
	for _, g := range groups {
		pri, sby := hostsOf(g)
		if sby == "" {
			t.Fatalf("%s: subjob %s has no standby", when, g.Spec.ID)
		}
		if dp, ds := cl.Domain(pri), cl.Domain(sby); dp != "" && dp == ds {
			t.Fatalf("%s: subjob %s primary %s and standby %s share fault domain %s",
				when, g.Spec.ID, pri, sby, dp)
		}
	}
}

// TestScheduledPipelineSurvivesFailureTrace replays a crash/recover
// trace against a fully scheduler-placed pipeline: the target subjob's
// standby host dies (a failure its heartbeat detector cannot see, since
// the detector lived there), then its primary host dies, then the first
// casualty comes back. While schedulable capacity exists no subjob may
// settle unprotected, primary and standby must never share a fault
// domain, and delivery stays exactly-once throughout.
func TestScheduledPipelineSurvivesFailureTrace(t *testing.T) {
	cl, _, p := buildScheduledTestbed(t)
	clk := cl.Clock()
	clk.Sleep(300 * time.Millisecond)

	groups := p.AllGroups()
	assertAntiAffine(t, cl, groups, "initial placement")
	target := groups[0]
	pri, sby := hostsOf(target)

	script, err := failure.ParseScript(fmt.Sprintf(`
		0ms    crash   %s
		700ms  crash   %s
		1400ms recover %s
	`, sby, pri, sby))
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	rep := failure.NewReplayer(clk, cl, script)
	rep.Start()
	rep.Wait()
	for _, ap := range rep.Applied() {
		if ap.Err != nil {
			t.Fatalf("trace event %v %s: %v", ap.Event.Action, ap.Event.Machine, ap.Err)
		}
	}

	if !waitProtectedGroups(cl, groups, 3*time.Second) {
		for _, g := range groups {
			gp, gs := hostsOf(g)
			t.Logf("subjob %s: state=%s primary=%s standby=%s", g.Spec.ID, g.HA.State(), gp, gs)
		}
		t.Fatal("a subjob stayed unprotected while schedulable capacity existed")
	}
	assertAntiAffine(t, cl, groups, "after trace")

	st := target.HA.Stats()
	if st.Rearms < 2 {
		t.Fatalf("target subjob recorded %d re-arms, want at least 2 (standby loss, then post-promotion)", st.Rearms)
	}
	if st.Promotions < 1 {
		t.Fatalf("target subjob recorded %d promotions, want at least 1 for the primary-host kill", st.Promotions)
	}

	clk.Sleep(300 * time.Millisecond)
	p.Source().Stop()
	clk.Sleep(500 * time.Millisecond)
	verifyExactlyOnce(t, p, 300)
}
