package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// TestLifecycleTransitionTableExhaustive pins the transition table: every
// (state, event) pair must have an entry, and the action must match the
// paper's protocol exactly. A new state or event that is not added here —
// and to the table — fails the test.
func TestLifecycleTransitionTableExhaustive(t *testing.T) {
	allStates := []State{Protected, SwitchedOver, RollingBack, Migrating, Promoted, Unprotected}
	allEvents := []EventKind{EventMiss, EventRecovery, EventPromoteTimer, EventChainBreak, EventRearm, EventStop}

	want := map[State]map[EventKind]action{
		Protected: {
			EventMiss:         actFailover,
			EventRecovery:     actIgnore,
			EventPromoteTimer: actIgnore,
			EventChainBreak:   actRebase,
			EventRearm:        actRearm,
			EventStop:         actShutdown,
		},
		SwitchedOver: {
			EventMiss:         actIgnore,
			EventRecovery:     actRestore,
			EventPromoteTimer: actPromote,
			EventChainBreak:   actRebase,
			EventRearm:        actIgnore,
			EventStop:         actShutdown,
		},
		RollingBack: {
			EventMiss:         actIgnore,
			EventRecovery:     actIgnore,
			EventPromoteTimer: actIgnore,
			EventChainBreak:   actRebase,
			EventRearm:        actIgnore,
			EventStop:         actShutdown,
		},
		Migrating: {
			EventMiss:         actIgnore,
			EventRecovery:     actIgnore,
			EventPromoteTimer: actIgnore,
			EventChainBreak:   actRebase,
			EventRearm:        actIgnore,
			EventStop:         actShutdown,
		},
		Promoted: {
			EventMiss:         actIgnore,
			EventRecovery:     actIgnore,
			EventPromoteTimer: actIgnore,
			EventChainBreak:   actRebase,
			EventRearm:        actIgnore,
			EventStop:         actShutdown,
		},
		Unprotected: {
			EventMiss:         actIgnore,
			EventRecovery:     actIgnore,
			EventPromoteTimer: actIgnore,
			EventChainBreak:   actIgnore,
			EventRearm:        actRearm,
			EventStop:         actShutdown,
		},
	}

	if len(transitionTable) != len(allStates) {
		t.Fatalf("table has %d states, want %d", len(transitionTable), len(allStates))
	}
	for _, s := range allStates {
		row, ok := transitionTable[s]
		if !ok {
			t.Fatalf("state %s has no row", s)
		}
		if len(row) != len(allEvents) {
			t.Fatalf("state %s row has %d events, want %d", s, len(row), len(allEvents))
		}
		for _, e := range allEvents {
			got, ok := row[e]
			if !ok {
				t.Fatalf("pair (%s, %s) has no entry", s, e)
			}
			if got != want[s][e] {
				t.Fatalf("pair (%s, %s): action %d, want %d", s, e, got, want[s][e])
			}
		}
	}
	if !reflect.DeepEqual(transitionTable, want) {
		t.Fatal("table has entries beyond the expected matrix")
	}
}

func TestLifecycleStateAndEventStrings(t *testing.T) {
	states := map[State]string{
		Protected:    "protected",
		SwitchedOver: "switched_over",
		RollingBack:  "rolling_back",
		Migrating:    "migrating",
		Promoted:     "promoted",
		Unprotected:  "unprotected",
	}
	for s, want := range states {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	events := map[EventKind]string{
		EventMiss:         "miss",
		EventRecovery:     "recovery",
		EventPromoteTimer: "promote_timer",
		EventChainBreak:   "chain_break",
		EventRearm:        "rearm",
		EventStop:         "stop",
	}
	for e, want := range events {
		if e.String() != want {
			t.Fatalf("event %d.String() = %q, want %q", int(e), e.String(), want)
		}
	}

	tr := Transition{Event: EventMiss, From: Protected, Via: stateNone, To: SwitchedOver}
	if s := tr.String(); !strings.Contains(s, "miss: protected -> switched_over") {
		t.Fatalf("direct transition renders %q", s)
	}
	tr.Via = RollingBack
	if s := tr.String(); !strings.Contains(s, "protected -> rolling_back -> switched_over") {
		t.Fatalf("transient transition renders %q", s)
	}
}

// fakePolicy drives the engine without any standby apparatus, so the event
// loop's own behavior — table dispatch, transition recording, the promote
// timer — can be asserted in isolation.
type fakePolicy struct {
	promoteAfter                 time.Duration
	failTo, restoreTo, promoteTo State
	restoreVia                   State

	mu                            sync.Mutex
	failovers, restores, promotes int
}

func (p *fakePolicy) Mode() string                { return "fake" }
func (p *fakePolicy) InitialState() State         { return Protected }
func (p *fakePolicy) PreDeploy() (bool, bool)     { return false, false }
func (p *fakePolicy) NeedsStandbyMachine() bool   { return false }
func (p *fakePolicy) PromoteAfter() time.Duration { return p.promoteAfter }
func (p *fakePolicy) Arm(lc *Lifecycle) error     { return nil }

func (p *fakePolicy) Failover(lc *Lifecycle, at time.Time) State {
	p.mu.Lock()
	p.failovers++
	p.mu.Unlock()
	return p.failTo
}

func (p *fakePolicy) Restore(lc *Lifecycle, at time.Time) State {
	if p.restoreVia != stateNone {
		lc.transient(p.restoreVia)
	}
	p.mu.Lock()
	p.restores++
	p.mu.Unlock()
	return p.restoreTo
}

func (p *fakePolicy) Promote(lc *Lifecycle, at time.Time) State {
	p.mu.Lock()
	p.promotes++
	p.mu.Unlock()
	return p.promoteTo
}

func (p *fakePolicy) counts() (f, r, pr int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failovers, p.restores, p.promotes
}

func newLifecycleRig(t *testing.T, pol StandbyPolicy) *Lifecycle {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	priM, err := machine.New("pri", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	spec := subjob.Spec{
		JobID:     "j",
		ID:        "j/sj",
		InStreams: []string{"in"},
		Owners:    map[string]string{"in": "up"},
		OutStream: "out",
		PEs: []subjob.PESpec{
			{Name: "a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 1} }},
		},
	}
	pri, err := subjob.New(spec, priM, false)
	if err != nil {
		t.Fatal(err)
	}
	pri.Start()
	// Registered before lc.Stop, so it runs after it: a lifecycle whose
	// Start failed leaves the primary to its caller.
	t.Cleanup(pri.Stop)
	lc := NewLifecycle(LifecycleConfig{
		Spec:    spec,
		Clock:   clk,
		Primary: pri,
		Policy:  pol,
	})
	t.Cleanup(lc.Stop)
	return lc
}

func waitState(t *testing.T, lc *Lifecycle, want State) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for lc.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("state %s, want %s", lc.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLifecycleEventLoopRecordsTransitions(t *testing.T) {
	pol := &fakePolicy{
		failTo:     SwitchedOver,
		restoreTo:  Protected,
		restoreVia: RollingBack,
		promoteTo:  Unprotected,
	}
	lc := newLifecycleRig(t, pol)
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}
	if lc.State() != Protected {
		t.Fatalf("initial state %s", lc.State())
	}

	lc.post(EventMiss, time.Now())
	waitState(t, lc, SwitchedOver)
	if !lc.Active() {
		t.Fatal("Active() false while switched over")
	}

	// A second miss while switched over is an actIgnore entry: no policy
	// call, no transition record.
	lc.post(EventMiss, time.Now())
	// A recovery event while switched over restores via the transient state.
	lc.post(EventRecovery, time.Now())
	waitState(t, lc, Protected)

	// A chain break in Protected forces a rebase and records a self-loop.
	lc.post(EventChainBreak, time.Now())
	deadline := time.Now().Add(2 * time.Second)
	for lc.ChainBreaks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if lc.ChainBreaks() != 1 {
		t.Fatalf("chain breaks %d, want 1", lc.ChainBreaks())
	}

	f, r, pr := pol.counts()
	if f != 1 || r != 1 || pr != 0 {
		t.Fatalf("policy calls failover=%d restore=%d promote=%d", f, r, pr)
	}

	trs := lc.Transitions()
	if len(trs) != 3 {
		t.Fatalf("transition log has %d entries: %v", len(trs), trs)
	}
	checks := []struct {
		event    EventKind
		from, to State
		via      State
	}{
		{EventMiss, Protected, SwitchedOver, stateNone},
		{EventRecovery, SwitchedOver, Protected, RollingBack},
		{EventChainBreak, Protected, Protected, stateNone},
	}
	for i, c := range checks {
		tr := trs[i]
		if tr.Event != c.event || tr.From != c.from || tr.To != c.to || tr.Via != c.via {
			t.Fatalf("transition %d = %+v, want %+v", i, tr, c)
		}
	}

	st := lc.Stats()
	if st.Mode != "fake" || st.State != "protected" || st.Active {
		t.Fatalf("stats %+v", st)
	}
	if st.ChainBreaks != 1 || len(st.Transitions) != 3 {
		t.Fatalf("stats counters %+v", st)
	}
}

func TestLifecyclePromoteTimerFires(t *testing.T) {
	pol := &fakePolicy{
		promoteAfter: 30 * time.Millisecond,
		failTo:       SwitchedOver,
		restoreTo:    Protected,
		restoreVia:   stateNone,
		promoteTo:    Unprotected,
	}
	lc := newLifecycleRig(t, pol)
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}
	lc.post(EventMiss, time.Now())
	waitState(t, lc, Unprotected)
	if _, _, pr := pol.counts(); pr != 1 {
		t.Fatalf("promotions %d, want 1", pr)
	}
	trs := lc.Transitions()
	last := trs[len(trs)-1]
	if last.Event != EventPromoteTimer || last.To != Unprotected {
		t.Fatalf("last transition %+v", last)
	}

	// Once unprotected, further events are ignored.
	lc.post(EventMiss, time.Now())
	lc.post(EventRecovery, time.Now())
	time.Sleep(20 * time.Millisecond)
	if got := len(lc.Transitions()); got != len(trs) {
		t.Fatalf("unprotected lifecycle still recorded transitions: %d -> %d", len(trs), got)
	}
}

func TestLifecycleRecoveryCancelsPromoteTimer(t *testing.T) {
	pol := &fakePolicy{
		promoteAfter: 80 * time.Millisecond,
		failTo:       SwitchedOver,
		restoreTo:    Protected,
		restoreVia:   RollingBack,
		promoteTo:    Unprotected,
	}
	lc := newLifecycleRig(t, pol)
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}
	lc.post(EventMiss, time.Now())
	waitState(t, lc, SwitchedOver)
	lc.post(EventRecovery, time.Now())
	waitState(t, lc, Protected)

	// Outlive the threshold: the canceled timer must not promote.
	time.Sleep(150 * time.Millisecond)
	if _, _, pr := pol.counts(); pr != 0 {
		t.Fatalf("canceled promote timer still fired %d time(s)", pr)
	}
	if lc.State() != Protected {
		t.Fatalf("state %s after canceled timer", lc.State())
	}

	// The protection is re-armed: a second miss switches over again.
	lc.post(EventMiss, time.Now())
	waitState(t, lc, SwitchedOver)
	if f, _, _ := pol.counts(); f != 2 {
		t.Fatalf("failovers %d, want 2", f)
	}
}

func TestLifecycleStartAndStopIdempotent(t *testing.T) {
	pol := &fakePolicy{failTo: SwitchedOver, restoreTo: Protected, restoreVia: stateNone, promoteTo: Unprotected}
	lc := newLifecycleRig(t, pol)
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}
	lc.Stop()
	lc.Stop()
	// post after Stop must not block or panic.
	lc.post(EventMiss, time.Now())
}

// TestPassivePresetOfHybrid pins conventional passive standby as a preset
// of the hybrid policy: the conventional three-miss threshold unless set,
// no pre-deployment, no suspended copy and no fail-stop promotion.
func TestPassivePresetOfHybrid(t *testing.T) {
	pp := NewPassivePolicy(PassiveOptions{})
	o := pp.opts
	if o.MissThreshold != 3 {
		t.Fatalf("conventional PS threshold %d, want 3", o.MissThreshold)
	}
	if o.HeartbeatInterval <= 0 || o.CheckpointInterval <= 0 || deployCost <= 0 {
		t.Fatal("defaults missing")
	}
	if !o.NoPreDeploy || !o.NoEarlyConnection {
		t.Fatalf("preset keeps hybrid optimisations: %+v", o)
	}
	if keep := NewPassivePolicy(PassiveOptions{MissThreshold: 1}).opts; keep.MissThreshold != 1 {
		t.Fatal("explicit threshold overridden")
	}
	if pp.Mode() != "passive" {
		t.Fatalf("mode %q", pp.Mode())
	}
	if create, suspended := pp.PreDeploy(); create || suspended {
		t.Fatalf("PreDeploy() = (%v, %v), want (false, false)", create, suspended)
	}
	if pp.PromoteAfter() != 0 {
		t.Fatalf("promote-after %s, want 0", pp.PromoteAfter())
	}
}

// TestPolicyContractFiveModes pins the static lifecycle contract of all
// five registered policies in one grid. Approx must match hybrid exactly —
// bounded-error recovery reuses the hybrid transition table and adds no
// states, events or timers of its own.
func TestPolicyContractFiveModes(t *testing.T) {
	opts := Options{FailStopAfter: 250 * time.Millisecond}
	grid := []struct {
		p            StandbyPolicy
		mode         string
		initial      State
		needsStandby bool
		promoteAfter time.Duration
	}{
		{NewNonePolicy(0), "none", Unprotected, false, 0},
		{NewActivePolicy(0), "active", Protected, true, 0},
		{NewPassivePolicy(PassiveOptions{}), "passive", Protected, true, 0},
		{NewHybridPolicy(opts), "hybrid", Protected, true, 250 * time.Millisecond},
		{NewApproxPolicy(opts, ErrorBudget{MaxLostElements: 100}), "approx", Protected, true, 250 * time.Millisecond},
	}
	seen := map[string]bool{}
	for _, g := range grid {
		if got := g.p.Mode(); got != g.mode {
			t.Fatalf("policy %T mode %q, want %q", g.p, got, g.mode)
		}
		if got := g.p.InitialState(); got != g.initial {
			t.Fatalf("%s initial state %s, want %s", g.mode, got, g.initial)
		}
		if got := g.p.NeedsStandbyMachine(); got != g.needsStandby {
			t.Fatalf("%s needs standby %v, want %v", g.mode, got, g.needsStandby)
		}
		if got := g.p.PromoteAfter(); got != g.promoteAfter {
			t.Fatalf("%s promote-after %s, want %s", g.mode, got, g.promoteAfter)
		}
		seen[g.mode] = true
	}
	if len(seen) != 5 {
		t.Fatalf("grid covers %d distinct modes, want 5", len(seen))
	}
}

// TestErrorBudgetZero pins the degeneration predicate: only a positive
// element bound makes a budget non-zero.
func TestErrorBudgetZero(t *testing.T) {
	cases := []struct {
		b    ErrorBudget
		zero bool
	}{
		{ErrorBudget{}, true},
		{ErrorBudget{MaxLostElements: -1}, true},
		{ErrorBudget{MaxLostElements: 1}, false},
	}
	for _, c := range cases {
		if got := c.b.Zero(); got != c.zero {
			t.Fatalf("budget %+v Zero() = %v, want %v", c.b, got, c.zero)
		}
	}
}

// TestCheckpointAfterStart pins what Checkpoint returns once Start has
// armed each of the five policies: no manager for none and active, which
// keep no checkpoints, and the primary's sweeping manager for passive,
// hybrid and approx.
func TestCheckpointAfterStart(t *testing.T) {
	opts := Options{}
	for _, c := range []struct {
		pol  StandbyPolicy
		want bool
	}{
		{NewNonePolicy(0), false},
		{NewActivePolicy(0), false},
		{NewPassivePolicy(PassiveOptions{}), true},
		{NewHybridPolicy(opts), true},
		{NewApproxPolicy(opts, ErrorBudget{MaxLostElements: 100}), true},
	} {
		t.Run(c.pol.Mode(), func(t *testing.T) {
			lc := newPolicyTrace(t, c.pol).lc
			if err := lc.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			if got := lc.Checkpoint() != nil; got != c.want {
				t.Fatalf("Checkpoint() != nil is %v, want %v", got, c.want)
			}
		})
	}
}
