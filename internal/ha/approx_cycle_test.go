package ha_test

import (
	"testing"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/pe"
	"streamha/internal/subjob"
)

// buildApproxCycleTestbed mirrors buildCycleTestbed for the approx mode:
// one protected subjob with a spare machine, under the given error budget.
// HotSlots gives the partial frames a hot/cold split to exploit.
func buildApproxCycleTestbed(t *testing.T, budget core.ErrorBudget) (*cluster.Cluster, *ha.Pipeline) {
	t.Helper()
	cl := cluster.New(cluster.Config{Latency: 100 * time.Microsecond})
	for _, id := range []string{"m-src", "m-sink", "p1", "s1", "spare"} {
		cl.MustAddMachine(id)
	}
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "job",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 1000, Tick: 2 * time.Millisecond},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs: []subjob.PESpec{
				{Name: "pe", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 10, HotSlots: 4} }, Cost: 10 * time.Microsecond},
			},
			Mode: ha.ModeApprox, Primary: "p1", Secondary: "s1", Spare: "spare",
		}},
		Hybrid:   core.Options{FailStopAfter: 250 * time.Millisecond},
		Approx:   budget,
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

// divergence reads the approx policy's loss accounting off a group.
func divergence(t *testing.T, g *ha.Group) core.DivergenceStats {
	t.Helper()
	dr, ok := g.HA.Policy().(*core.ApproxPolicy)
	if !ok {
		t.Fatalf("policy %T does not report divergence", g.HA.Policy())
	}
	return dr.Divergence()
}

// verifyBoundedLoss is the approx-mode counterpart of verifyExactlyOnce:
// deliveries still never duplicate and the sink sequence stays gap-free,
// but budgeted failovers may lose elements — the missing IDs must not
// exceed the loss the policy accounted (plus a small in-flight allowance).
func verifyBoundedLoss(t *testing.T, p *ha.Pipeline, lost int64, minElements int) {
	t.Helper()
	counts := p.Sink().IDCounts()
	if len(counts) < minElements {
		t.Fatalf("sink received %d distinct elements, want at least %d", len(counts), minElements)
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("element %d delivered %d times, want at most once", id, n)
		}
	}
	var max uint64
	for id := range counts {
		if id > max {
			max = id
		}
	}
	var missing int64
	for id := uint64(1); id <= max; id++ {
		if counts[id] == 0 {
			missing++
		}
	}
	// The slack covers elements in flight between the loss estimate and the
	// dedup-floor jump; everything else missing must have been accounted.
	const slack = 256
	if missing > lost+slack {
		t.Fatalf("%d element IDs missing below max %d, but the policy accounted only %d lost (+%d slack)",
			missing, max, lost, slack)
	}
	_, gaps := p.Sink().In().Drops()
	if gaps != 0 {
		t.Fatalf("sink input recorded %d sequence gaps: protocol bug", gaps)
	}
}

// TestLifecycleCycleApprox drives the approx policy through the hybrid
// cycle — two transient stalls (switchover + rollback each), a fail-stop
// promotion, then a stall on the re-armed protection — and checks the
// bounded-loss contract: budgeted skips instead of exact replays, measured
// loss within budget, no duplicates and no sink gaps.
func TestLifecycleCycleApprox(t *testing.T) {
	budget := core.ErrorBudget{MaxLostElements: 5000}
	cl, p := buildApproxCycleTestbed(t, budget)
	g := p.Group(0)
	time.Sleep(300 * time.Millisecond)

	for i := 0; i < 2; i++ {
		before := len(g.HA.Rollbacks())
		stall(cl, "p1", 120*time.Millisecond)
		deadline := time.Now().Add(2 * time.Second)
		for len(g.HA.Rollbacks()) == before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if len(g.HA.Rollbacks()) == before {
			t.Fatalf("stall %d: no rollback (switches=%d rollbacks=%d)",
				i+1, len(g.HA.Switches()), len(g.HA.Rollbacks()))
		}
	}
	swBeforeCrash := len(g.HA.Switches())

	cl.Machine("p1").Crash()
	deadline := time.Now().Add(3 * time.Second)
	for len(g.HA.Promotions()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(g.HA.Promotions()) != 1 {
		t.Fatalf("promotions %d, want 1", len(g.HA.Promotions()))
	}
	if got := g.HA.PrimaryRuntime().Node(); string(got) != "s1" {
		t.Fatalf("primary on %s, want s1 after promotion", got)
	}
	deadline = time.Now().Add(2 * time.Second)
	for g.HA.SecondaryRuntime() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sec := g.HA.SecondaryRuntime()
	if sec == nil || string(sec.Node()) != "spare" {
		t.Fatal("promotion did not re-arm a standby on the spare machine")
	}
	time.Sleep(200 * time.Millisecond)

	stall(cl, "s1", 120*time.Millisecond)
	deadline = time.Now().Add(2 * time.Second)
	for len(g.HA.Switches()) == swBeforeCrash && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(g.HA.Switches()) == swBeforeCrash {
		t.Fatal("re-armed standby never switched over after promotion")
	}

	time.Sleep(400 * time.Millisecond)
	p.Source().Stop()
	time.Sleep(400 * time.Millisecond)

	// Approx adds no lifecycle states: the transition log must be the same
	// connected hybrid walk.
	trs := g.HA.Transitions()
	checkTransitionChain(t, trs, core.Protected)
	for _, tr := range trs {
		switch tr.Event {
		case core.EventMiss:
			if tr.From != core.Protected || tr.To != core.SwitchedOver {
				t.Fatalf("miss transition %s", tr)
			}
		case core.EventRecovery:
			if tr.From != core.SwitchedOver || tr.Via != core.RollingBack || tr.To != core.Protected {
				t.Fatalf("recovery transition %s", tr)
			}
		case core.EventPromoteTimer:
			if tr.From != core.SwitchedOver || tr.Via != core.Promoted || tr.To != core.Protected {
				t.Fatalf("promotion transition %s (spare present: must re-protect)", tr)
			}
		}
	}
	st := g.HA.Stats()
	if st.Mode != "approx" || st.Promotions != 1 || st.Switchovers < 3 || st.Rollbacks < 2 {
		t.Fatalf("lifecycle stats %+v", st)
	}

	d := divergence(t, g)
	if d.Failovers < 3 {
		t.Fatalf("divergence records %d failovers, want >= 3: %+v", d.Failovers, d)
	}
	if d.BudgetedSkips == 0 {
		t.Fatalf("no failover skipped replay within a %d-element budget: %+v", budget.MaxLostElements, d)
	}
	if !d.WithinBudget {
		t.Fatalf("measured loss exceeded the budget: %+v", d)
	}
	if d.LostElements > int64(budget.MaxLostElements)*int64(d.BudgetedSkips) {
		t.Fatalf("cumulative loss %d exceeds %d budgeted skips x %d: %+v",
			d.LostElements, d.BudgetedSkips, budget.MaxLostElements, d)
	}
	verifyBoundedLoss(t, p, d.LostElements, 200)

	// The partial-snapshot path must actually have been exercised.
	if cm := g.HA.Checkpoint(); cm != nil {
		if cs := cm.Stats(); cs.Partials == 0 {
			t.Fatalf("approx shipped no partial checkpoints: %+v", cs)
		}
	}
}

// TestLifecycleCycleApproxZeroBudget pins the degeneration contract: approx
// with a zero budget is byte-identical hybrid — full/delta checkpoints
// only, exact replay on every failover, zero recorded divergence, and the
// exactly-once audit holds.
func TestLifecycleCycleApproxZeroBudget(t *testing.T) {
	cl, p := buildApproxCycleTestbed(t, core.ErrorBudget{})
	g := p.Group(0)
	time.Sleep(300 * time.Millisecond)

	before := len(g.HA.Rollbacks())
	stall(cl, "p1", 120*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(g.HA.Rollbacks()) == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(g.HA.Rollbacks()) == before {
		t.Fatal("no rollback after transient stall")
	}

	cl.Machine("p1").Crash()
	deadline = time.Now().Add(3 * time.Second)
	for len(g.HA.Promotions()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(g.HA.Promotions()) != 1 {
		t.Fatalf("promotions %d, want 1", len(g.HA.Promotions()))
	}

	time.Sleep(400 * time.Millisecond)
	p.Source().Stop()
	time.Sleep(400 * time.Millisecond)

	st := g.HA.Stats()
	if st.Mode != "approx" {
		t.Fatalf("lifecycle stats %+v", st)
	}
	d := divergence(t, g)
	if d.BudgetedSkips != 0 || d.LostElements != 0 || d.StaleColdBytes != 0 || !d.WithinBudget {
		t.Fatalf("zero-budget approx recorded divergence: %+v", d)
	}
	if cm := g.HA.Checkpoint(); cm != nil {
		if cs := cm.Stats(); cs.Partials != 0 || cs.BytesPartial != 0 {
			t.Fatalf("zero-budget approx shipped partial checkpoints: %+v", cs)
		}
	}
	verifyExactlyOnce(t, p, 200)
}

// TestPartitionedCycleApprox: four independently protected approx
// partition-instances; a stall on one must budget-skip and roll back that
// instance only, a fail-stop on another must promote its standby, and the
// job-level audit is bounded loss instead of exactly-once.
func TestPartitionedCycleApprox(t *testing.T) {
	budget := core.ErrorBudget{MaxLostElements: 5000}
	cl := cluster.New(cluster.Config{Latency: 100 * time.Microsecond})
	for _, id := range []string{"m-src", "m-sink", "p0", "p1", "p2", "p3", "s0", "s1", "s2", "s3"} {
		cl.MustAddMachine(id)
	}
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "pjob",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 4000, Tick: 2 * time.Millisecond},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs: []subjob.PESpec{
				{Name: "pe", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 10, HotSlots: 4} }, Cost: 10 * time.Microsecond},
			},
			Mode:        ha.ModeApprox,
			Parallelism: 4,
			Primaries:   []string{"p0", "p1", "p2", "p3"},
			Secondaries: []string{"s0", "s1", "s2", "s3"},
		}},
		Hybrid:   core.Options{FailStopAfter: 250 * time.Millisecond},
		Approx:   budget,
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
	groups := p.StageInstances(0)
	time.Sleep(300 * time.Millisecond)

	// Transient stall on instance 1's primary: switchover then rollback.
	stall(cl, "p1", 120*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(groups[1].HA.Rollbacks()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(groups[1].HA.Rollbacks()) == 0 {
		t.Fatalf("instance 1 never rolled back (switches=%d)", len(groups[1].HA.Switches()))
	}

	// Fail-stop on instance 2's primary machine: its standby is promoted.
	cl.Machine("p2").Crash()
	deadline = time.Now().Add(3 * time.Second)
	for len(groups[2].HA.Promotions()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(groups[2].HA.Promotions()) != 1 {
		t.Fatalf("instance 2 promotions %d, want 1", len(groups[2].HA.Promotions()))
	}
	if got := string(groups[2].HA.PrimaryRuntime().Node()); got != "s2" {
		t.Fatalf("instance 2 primary on %s, want s2", got)
	}

	// Containment: untouched instances never promote or move.
	for _, k := range []int{0, 3} {
		if n := len(groups[k].HA.Promotions()); n != 0 {
			t.Fatalf("untouched instance %d promoted %d times", k, n)
		}
		if got, want := string(groups[k].HA.PrimaryRuntime().Node()), []string{"p0", "", "", "p3"}[k]; got != want {
			t.Fatalf("untouched instance %d primary moved to %s", k, got)
		}
	}

	time.Sleep(300 * time.Millisecond)
	p.Source().Stop()
	time.Sleep(400 * time.Millisecond)

	var lost int64
	for k, g := range groups {
		checkTransitionChain(t, g.HA.Transitions(), core.Protected)
		d := divergence(t, g)
		if !d.WithinBudget {
			t.Fatalf("instance %d divergence exceeded budget: %+v", k, d)
		}
		lost += d.LostElements
	}
	verifyBoundedLoss(t, p, lost, 500)
}
