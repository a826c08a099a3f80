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

// buildCycleTestbed deploys a single protected subjob with a spare machine
// so every mode can be driven through repeated failures.
func buildCycleTestbed(t *testing.T, mode ha.Mode) (*cluster.Cluster, *ha.Pipeline) {
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
				{Name: "pe", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 10} }, Cost: 10 * time.Microsecond},
			},
			Mode: mode, Primary: "p1", Secondary: "s1", Spare: "spare",
		}},
		Hybrid:   core.Options{FailStopAfter: 250 * time.Millisecond},
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

// checkTransitionChain verifies the transition log is a connected walk:
// every transition leaves the state the previous one settled in. This is
// the core invariant of the single event loop — no interleaved actions.
func checkTransitionChain(t *testing.T, trs []core.Transition, initial core.State) {
	t.Helper()
	prev := initial
	for i, tr := range trs {
		if tr.From != prev {
			t.Fatalf("transition %d (%s) starts from %s, previous settled in %s:\n%v",
				i, tr, tr.From, prev, trs)
		}
		prev = tr.To
	}
}

// stall pins a machine's CPU for d, then releases it.
func stall(cl *cluster.Cluster, m string, d time.Duration) {
	cl.Machine(m).CPU().SetBackgroundLoad(1)
	time.Sleep(d)
	cl.Machine(m).CPU().SetBackgroundLoad(0)
}

// TestLifecycleCycleHybrid drives the hybrid policy through two transient
// stalls (switchover + rollback each), then a fail-stop promotion, then a
// further stall on the re-armed protection — the standby that was
// re-instantiated on the spare machine must take over.
func TestLifecycleCycleHybrid(t *testing.T) {
	cl, p := buildCycleTestbed(t, ha.ModeHybrid)
	g := p.Group(0)
	time.Sleep(300 * time.Millisecond)

	// Two consecutive transient stalls: each must switch over and roll back.
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

	// Fail-stop: the primary crashes for good, the standby is promoted and
	// protection re-arms on the spare machine.
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
	// Re-arming finishes after the promotion event is recorded; wait for
	// the replacement standby to appear.
	deadline = time.Now().Add(2 * time.Second)
	for g.HA.SecondaryRuntime() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sec := g.HA.SecondaryRuntime()
	if sec == nil || string(sec.Node()) != "spare" {
		t.Fatal("promotion did not re-arm a standby on the spare machine")
	}
	if !sec.Suspended() {
		t.Fatal("re-armed standby not suspended")
	}
	time.Sleep(200 * time.Millisecond)

	// Fail-stop-style stall on the re-armed protection: the promoted
	// primary (on s1) stalls and the spare standby must take over.
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

	trs := g.HA.Transitions()
	checkTransitionChain(t, trs, core.Protected)
	var promoteSeen bool
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
			promoteSeen = true
			if tr.From != core.SwitchedOver || tr.Via != core.Promoted || tr.To != core.Protected {
				t.Fatalf("promotion transition %s (spare present: must re-protect)", tr)
			}
		}
	}
	if !promoteSeen {
		t.Fatalf("transition log has no promote_timer event:\n%v", trs)
	}
	st := g.HA.Stats()
	if st.Mode != "hybrid" || st.Promotions != 1 || st.Switchovers < 3 || st.Rollbacks < 2 {
		t.Fatalf("lifecycle stats %+v", st)
	}
	verifyExactlyOnce(t, p, 200)
}

// TestLifecycleCyclePassive drives passive standby through two transient
// stalls — the machine roles ping-pong on each migration — and then a
// fail-stop crash of the re-armed primary; each failure is one migration
// in the transition log. Before the first failure the store has folded
// deltas into its image and dropped none, so the first migration deploys
// from an image folded from deltas; every element still reaches the sink
// exactly once.
func TestLifecycleCyclePassive(t *testing.T) {
	cl, p := buildCycleTestbed(t, ha.ModePassive)
	g := p.Group(0)
	time.Sleep(300 * time.Millisecond)
	if st := g.HA.Store().Stats(); st.DeltaFolds == 0 || st.DeltaDrops != 0 {
		t.Fatalf("before the first failure the store folded %d deltas and dropped %d, want some and none",
			st.DeltaFolds, st.DeltaDrops)
	}

	// Two transient stalls; the primary alternates p1 -> s1 -> p1.
	wantNode := []string{"s1", "p1"}
	for i := 0; i < 2; i++ {
		before := len(g.HA.Migrations())
		from := string(g.HA.PrimaryRuntime().Node())
		stall(cl, from, 400*time.Millisecond)
		deadline := time.Now().Add(3 * time.Second)
		for len(g.HA.Migrations()) == before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if len(g.HA.Migrations()) == before {
			t.Fatalf("stall %d on %s: no migration", i+1, from)
		}
		time.Sleep(300 * time.Millisecond)
		if got := string(g.HA.PrimaryRuntime().Node()); got != wantNode[i] {
			t.Fatalf("after migration %d primary on %s, want %s", i+1, got, wantNode[i])
		}
	}

	// Fail-stop on the re-armed protection: crash the current primary; the
	// detector re-armed after the second migration must drive a third
	// migration onto the standby machine.
	before := len(g.HA.Migrations())
	cl.Machine(string(g.HA.PrimaryRuntime().Node())).Crash()
	deadline := time.Now().Add(3 * time.Second)
	for len(g.HA.Migrations()) == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(g.HA.Migrations()) == before {
		t.Fatal("crash after re-arming: no migration")
	}

	time.Sleep(400 * time.Millisecond)
	p.Source().Stop()
	time.Sleep(400 * time.Millisecond)

	trs := g.HA.Transitions()
	checkTransitionChain(t, trs, core.Protected)
	migrations := 0
	for i, tr := range trs {
		if tr.Event != core.EventMiss {
			t.Fatalf("passive log has non-miss event: %s", tr)
		}
		if tr.From != core.Protected || tr.Via != core.Migrating {
			t.Fatalf("migration transition %s", tr)
		}
		// The final migration leaves the crashed machine as the only
		// standby host: the subjob keeps running but unprotected. Every
		// earlier migration re-arms back to Protected.
		if i < len(trs)-1 && tr.To != core.Protected {
			t.Fatalf("migration %d did not re-arm: %s", i, tr)
		}
		migrations++
	}
	if migrations < 3 {
		t.Fatalf("transition log has %d migrations, want >= 3:\n%v", migrations, trs)
	}
	last := trs[len(trs)-1]
	if last.To != core.Unprotected {
		t.Fatalf("final migration off the crashed machine should settle unprotected: %s", last)
	}
	if st := g.HA.State(); st != core.Unprotected {
		t.Fatalf("state %s after exhausting live standby machines", st)
	}
	st := g.HA.Stats()
	if st.Mode != "passive" || st.Migrations != migrations || st.Switchovers != 0 {
		t.Fatalf("lifecycle stats %+v", st)
	}
	verifyExactlyOnce(t, p, 200)
}

// TestLifecycleCycleActive: the active-standby twin needs no detector and
// no transitions — it must keep delivering through a stall and even a
// crash of the primary machine, with an empty transition log throughout.
func TestLifecycleCycleActive(t *testing.T) {
	cl, p := buildCycleTestbed(t, ha.ModeActive)
	g := p.Group(0)
	time.Sleep(300 * time.Millisecond)

	stall(cl, "p1", 200*time.Millisecond)
	time.Sleep(200 * time.Millisecond)
	cl.Machine("p1").Crash()
	time.Sleep(400 * time.Millisecond)

	p.Source().Stop()
	time.Sleep(400 * time.Millisecond)

	if st := g.HA.State(); st != core.Protected {
		t.Fatalf("active standby state %s, want protected", st)
	}
	if trs := g.HA.Transitions(); len(trs) != 0 {
		t.Fatalf("active standby recorded transitions: %v", trs)
	}
	st := g.HA.Stats()
	if st.Mode != "active" || st.Switchovers != 0 || st.Migrations != 0 {
		t.Fatalf("lifecycle stats %+v", st)
	}
	verifyExactlyOnce(t, p, 200)
}

// TestLifecycleCycleNone: an unprotected subjob endures stalls with no HA
// machinery at all; the lifecycle stays Unprotected and records nothing.
func TestLifecycleCycleNone(t *testing.T) {
	cl, p := buildCycleTestbed(t, ha.ModeNone)
	g := p.Group(0)
	time.Sleep(300 * time.Millisecond)

	stall(cl, "p1", 200*time.Millisecond)
	stall(cl, "p1", 200*time.Millisecond)
	time.Sleep(300 * time.Millisecond)

	p.Source().Stop()
	time.Sleep(300 * time.Millisecond)

	if st := g.HA.State(); st != core.Unprotected {
		t.Fatalf("none-mode state %s, want unprotected", st)
	}
	if trs := g.HA.Transitions(); len(trs) != 0 {
		t.Fatalf("none-mode recorded transitions: %v", trs)
	}
	if st := g.HA.Stats(); st.Mode != "none" {
		t.Fatalf("lifecycle stats %+v", st)
	}
	verifyExactlyOnce(t, p, 300)
}
