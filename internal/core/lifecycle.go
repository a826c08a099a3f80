package core

import (
	"fmt"
	"sync"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/clock"
	"streamha/internal/detect"
	"streamha/internal/machine"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// State is a subjob's position in the HA lifecycle. The four modes of the
// paper share one state machine; a policy simply never triggers the
// transitions it has no use for (NONE stays Unprotected, active standby
// stays Protected, passive standby never enters SwitchedOver).
type State int

const (
	// Protected: the primary is processing and a standby side (suspended
	// copy, twin, or checkpoint store) can take over.
	Protected State = iota
	// SwitchedOver: a transient failure activated the hybrid standby; the
	// primary may still come back.
	SwitchedOver
	// RollingBack: the recovered primary is reading the standby's state
	// back (transient; visited inside a recovery event).
	RollingBack
	// Migrating: a recovery copy is being deployed from the checkpoint
	// store (transient; visited inside a passive-standby failure event).
	Migrating
	// Promoted: the standby is being made the permanent primary after a
	// fail-stop (transient; visited inside the promote-timer event).
	Promoted
	// Unprotected: no standby side remains (NONE mode, a spare-less
	// promotion, or an unrecoverable migration).
	Unprotected

	// stateNone marks "no transient state" in a Transition record.
	stateNone State = -1
)

func (s State) String() string {
	switch s {
	case Protected:
		return "protected"
	case SwitchedOver:
		return "switched_over"
	case RollingBack:
		return "rolling_back"
	case Migrating:
		return "migrating"
	case Promoted:
		return "promoted"
	case Unprotected:
		return "unprotected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// EventKind is a lifecycle input: the detector's verdicts, the fail-stop
// timer, a checkpoint-chain break reported by the standby side, and stop.
type EventKind int

const (
	// EventMiss: the heartbeat detector declared the primary unresponsive.
	EventMiss EventKind = iota
	// EventRecovery: the detector saw the primary respond again.
	EventRecovery
	// EventPromoteTimer: the failure outlasted the fail-stop threshold.
	EventPromoteTimer
	// EventChainBreak: the standby side dropped an incremental checkpoint
	// that did not extend its state chain; the manager must rebase.
	EventChainBreak
	// EventRearm: the periodic protection health check (armed only when a
	// Placer is configured): from Unprotected it asks the scheduler for a
	// replacement standby host; from Protected it verifies the standby
	// machine is still alive and replaces it if not.
	EventRearm
	// EventStop: the lifecycle is shutting down.
	EventStop
)

func (e EventKind) String() string {
	switch e {
	case EventMiss:
		return "miss"
	case EventRecovery:
		return "recovery"
	case EventPromoteTimer:
		return "promote_timer"
	case EventChainBreak:
		return "chain_break"
	case EventRearm:
		return "rearm"
	case EventStop:
		return "stop"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// action is what the transition table maps a (state, event) pair to.
type action int

const (
	// actIgnore drops the event (the no-transition entries of the table).
	actIgnore action = iota
	// actFailover runs the policy's failover: hybrid switchover or passive
	// migration.
	actFailover
	// actRestore runs the policy's restore (hybrid rollback).
	actRestore
	// actPromote runs the policy's fail-stop promotion.
	actPromote
	// actRebase forces the next checkpoint to be a full snapshot.
	actRebase
	// actRearm runs the policy's scheduler-backed protection repair.
	actRearm
	// actShutdown ends the event loop.
	actShutdown
)

// transitionTable is the lifecycle's explicit event×state map. Every
// (state, event) pair has an entry; the exhaustive test in
// lifecycle_test.go keeps it that way. The transient states (RollingBack,
// Migrating, Promoted) are only ever observed from outside the event
// loop — the loop is single-threaded, so no event is dispatched while one
// is current — but their rows are part of the contract: anything arriving
// then would be ignored.
var transitionTable = map[State]map[EventKind]action{
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

// Transition is one recorded lifecycle transition. Via is the transient
// state passed through while the event was being handled (stateNone for a
// direct hop).
type Transition struct {
	At    time.Time
	Event EventKind
	From  State
	Via   State
	To    State
}

// String renders a transition for logs and the metrics registry.
func (t Transition) String() string {
	if t.Via == stateNone {
		return fmt.Sprintf("%s %s: %s -> %s",
			t.At.Format("15:04:05.000"), t.Event, t.From, t.To)
	}
	return fmt.Sprintf("%s %s: %s -> %s -> %s",
		t.At.Format("15:04:05.000"), t.Event, t.From, t.Via, t.To)
}

// StandbyPolicy is one HA mode plugged into the Lifecycle engine: it arms
// the standby side at start and carries out the transitions the table
// selects. Policies run on the engine's event goroutine and return the
// state the lifecycle settles in.
type StandbyPolicy interface {
	// Mode names the policy ("none", "active", "passive", "hybrid",
	// "approx").
	Mode() string
	// InitialState is the state after a successful Arm.
	InitialState() State
	// PreDeploy reports whether a standby copy should exist before Start
	// (so deployers can create and wire it early), and whether that copy
	// runs suspended.
	PreDeploy() (create, suspended bool)
	// NeedsStandbyMachine reports whether the policy requires a secondary
	// machine at all.
	NeedsStandbyMachine() bool
	// PromoteAfter is the fail-stop threshold armed after a failover that
	// returns SwitchedOver; zero disables promotion.
	PromoteAfter() time.Duration
	// Arm deploys the standby side: copies, checkpoint apparatus, detector.
	Arm(lc *Lifecycle) error
	// Failover handles EventMiss from Protected.
	Failover(lc *Lifecycle, at time.Time) State
	// Restore handles EventRecovery from SwitchedOver.
	Restore(lc *Lifecycle, at time.Time) State
	// Promote handles EventPromoteTimer from SwitchedOver.
	Promote(lc *Lifecycle, at time.Time) State
}

// LifecycleConfig assembles the HA lifecycle of one subjob.
type LifecycleConfig struct {
	// Spec is the protected subjob.
	Spec subjob.Spec
	// Clock is the time source.
	Clock clock.Clock
	// Primary is the running primary copy.
	Primary *subjob.Runtime
	// Secondary, when non-nil, is a pre-created standby copy already wired
	// by the deployer (pipeline builders wire all copies before starting
	// lifecycles so standby-to-standby early connections exist). When nil,
	// a policy that pre-deploys creates and wires the copy itself.
	Secondary *subjob.Runtime
	// SecondaryMachine hosts the standby side; it may be shared by the
	// standbys of several subjobs (multiplexing).
	SecondaryMachine *machine.Machine
	// SpareMachine hosts the replacement standby after a fail-stop
	// promotion; nil leaves the subjob unprotected after promoting.
	SpareMachine *machine.Machine
	// Wiring connects the subjob to its neighbors.
	Wiring Wiring
	// Policy is the HA mode.
	Policy StandbyPolicy
	// Placer, when non-nil, is the cluster scheduler the lifecycle asks for
	// replacement standby hosts: after a fail-stop promotion exhausts the
	// static spare, and from the periodic re-arm health check. Nil keeps
	// the static-placement behavior (a spare-less promotion settles
	// Unprotected for good).
	Placer Placer
	// RearmInterval is the period of the protection health check; zero
	// selects 100ms. Only armed when Placer is set and the policy
	// implements Rearmer.
	RearmInterval time.Duration
}

type lcEvent struct {
	kind EventKind
	at   time.Time
}

// Lifecycle drives one subjob's HA protocol: a single event loop applies
// the transition table to detector callbacks, the fail-stop timer and
// chain-break reports, delegating the actual work to the configured
// StandbyPolicy and recording every transition.
type Lifecycle struct {
	cfg LifecycleConfig
	pol StandbyPolicy
	clk clock.Clock

	mu          sync.Mutex
	state       State
	via         State // transient state set mid-action, stateNone otherwise
	primary     *subjob.Runtime
	secondary   *subjob.Runtime
	secondaryM  *machine.Machine // current standby machine (migrations/promotions move it)
	standby     *StandbyStore
	store       *checkpoint.Store
	cm          *checkpoint.Core
	ackers      []*checkpoint.Acker
	det         *detect.Heartbeat
	rsOn        *machine.Machine // machine holding the read-state ack handler
	transitions []Transition
	switches    []SwitchEvent
	migrations  []MigrationEvent
	rollbacks   []RollbackEvent
	promotions  []PromoteEvent
	rearms      []RearmEvent
	chainBreaks int
	started     bool
	released    bool // the placer has been handed the subjob's slots back

	events    chan lcEvent
	readState chan []byte // a rollback's read-state, from registerReadState's handler
	stop      chan struct{}
	done      chan struct{}
}

// NewLifecycle creates the lifecycle engine for one subjob; call Start
// once the primary copy is running.
func NewLifecycle(cfg LifecycleConfig) *Lifecycle {
	return &Lifecycle{
		cfg:        cfg,
		pol:        cfg.Policy,
		clk:        cfg.Clock,
		state:      Unprotected,
		via:        stateNone,
		primary:    cfg.Primary,
		secondary:  cfg.Secondary,
		secondaryM: cfg.SecondaryMachine,
		events:     make(chan lcEvent, 16),
		readState:  make(chan []byte, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Start arms the policy (standby copies, checkpoint apparatus, detector)
// and launches the event loop. Idempotent. When it returns an error the
// lifecycle has not started and Stop only releases its scheduler slots:
// the caller still owns the primary copy and must stop it (or retry Start
// instead of stopping).
func (lc *Lifecycle) Start() error {
	lc.mu.Lock()
	if lc.started {
		lc.mu.Unlock()
		return nil
	}
	lc.started = true
	lc.mu.Unlock()
	// An error below means the event loop never launched; roll back the
	// started flag so a subsequent Stop doesn't block on lc.done forever
	// (and a fixed-up caller may retry Start).
	unstart := func() {
		lc.mu.Lock()
		lc.started = false
		lc.mu.Unlock()
	}

	if err := lc.pol.Arm(lc); err != nil {
		unstart()
		return err
	}
	lc.mu.Lock()
	lc.state = lc.pol.InitialState()
	lc.mu.Unlock()
	go lc.run()
	return nil
}

func (lc *Lifecycle) run() {
	defer close(lc.done)
	var promote <-chan time.Time
	var rearmC <-chan time.Time
	if _, ok := lc.pol.(Rearmer); ok && lc.cfg.Placer != nil {
		interval := lc.cfg.RearmInterval
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		t := lc.clk.NewTicker(interval)
		defer t.Stop()
		rearmC = t.C()
	}
	for {
		select {
		case <-lc.stop:
			return
		case ev := <-lc.events:
			if lc.dispatch(ev, &promote) {
				return
			}
		case <-promote:
			promote = nil
			if lc.dispatch(lcEvent{kind: EventPromoteTimer, at: lc.clk.Now()}, &promote) {
				return
			}
		case <-rearmC:
			if lc.dispatch(lcEvent{kind: EventRearm, at: lc.clk.Now()}, &promote) {
				return
			}
		}
	}
}

// dispatch applies the transition table to one event, running the
// selected policy action on the loop goroutine. It reports true when the
// loop must exit.
func (lc *Lifecycle) dispatch(ev lcEvent, promote *<-chan time.Time) bool {
	from := lc.State()
	switch transitionTable[from][ev.kind] {
	case actIgnore:
	case actFailover:
		to := lc.pol.Failover(lc, ev.at)
		lc.settle(ev, from, to)
		if to == SwitchedOver && lc.pol.PromoteAfter() > 0 {
			*promote = lc.clk.After(lc.pol.PromoteAfter())
		}
	case actRestore:
		*promote = nil
		to := lc.pol.Restore(lc, ev.at)
		lc.settle(ev, from, to)
	case actPromote:
		to := lc.pol.Promote(lc, ev.at)
		lc.settle(ev, from, to)
	case actRearm:
		if r, ok := lc.pol.(Rearmer); ok && lc.cfg.Placer != nil {
			to := r.Rearm(lc, ev.at)
			lc.settle(ev, from, to)
		}
	case actRebase:
		if cm := lc.Checkpoint(); cm != nil {
			cm.ForceFull()
		}
		lc.mu.Lock()
		lc.chainBreaks++
		lc.transitions = append(lc.transitions, Transition{
			At: ev.at, Event: ev.kind, From: from, Via: stateNone, To: from,
		})
		lc.mu.Unlock()
	case actShutdown:
		return true
	}
	return false
}

// settle moves the lifecycle into its post-action state and records the
// transition. A no-op action (same state, no transient visited) leaves no
// record, matching the old controllers' behavior for failed or redundant
// operations.
func (lc *Lifecycle) settle(ev lcEvent, from, to State) {
	lc.mu.Lock()
	via := lc.via
	lc.via = stateNone
	lc.state = to
	if from != to || via != stateNone {
		lc.transitions = append(lc.transitions, Transition{
			At: ev.at, Event: ev.kind, From: from, Via: via, To: to,
		})
	}
	lc.mu.Unlock()
}

// transient publishes a mid-action state (RollingBack, Migrating,
// Promoted): observers polling State see it while the policy works, and
// settle records it as the transition's Via.
func (lc *Lifecycle) transient(s State) {
	lc.mu.Lock()
	lc.via = s
	lc.state = s
	lc.mu.Unlock()
}

// post enqueues an event from a detector or store callback.
func (lc *Lifecycle) post(kind EventKind, at time.Time) {
	select {
	case lc.events <- lcEvent{kind: kind, at: at}:
	case <-lc.stop:
	}
}

// startDetector (re)creates the heartbeat detector. Both callbacks are
// always registered — callbacks are local to the monitor, so an event the
// table ignores costs nothing and sends nothing.
func (lc *Lifecycle) startDetector(monitor *machine.Machine, target transport.NodeID,
	session string, interval time.Duration, miss int) {
	det := detect.NewHeartbeat(detect.HeartbeatConfig{
		Monitor:       monitor,
		Clock:         lc.clk,
		Target:        target,
		Session:       session,
		Interval:      interval,
		MissThreshold: miss,
		OnFailure:     func(at time.Time) { lc.post(EventMiss, at) },
		OnRecovery:    func(at time.Time) { lc.post(EventRecovery, at) },
	})
	lc.mu.Lock()
	lc.det = det
	lc.mu.Unlock()
	det.Start()
}

// upPart returns the partition-instance index this subjob's copies consume
// from upstream outputs: the configured instance index for a keyed-parallel
// stage, -1 (unfiltered) otherwise.
func (lc *Lifecycle) upPart() int {
	if lc.cfg.Wiring.InPartitioner != nil {
		return lc.cfg.Wiring.Part
	}
	return -1
}

// applyPartitioning gives a newly created copy the same partition view as
// the copy it replaces or protects: the downstream routing table on its
// output and the input-queue guard of its own stage.
func (lc *Lifecycle) applyPartitioning(rt *subjob.Runtime) {
	w := lc.cfg.Wiring
	if w.OutPartitioner != nil {
		rt.Out().SetPartitioner(w.OutPartitioner)
	}
	if w.InPartitioner != nil {
		rt.SetInputPartition(w.InPartitioner, w.Part)
	}
}

// connectStandby creates the standby's early connections: inactive
// subscriptions from every upstream output, and subscriptions from the
// standby's output to every downstream target (no data flows while the
// standby is suspended).
func (lc *Lifecycle) connectStandby(sec *subjob.Runtime) {
	part := lc.upPart()
	for _, up := range lc.cfg.Wiring.UpstreamOutputs() {
		up.SubscribePart(sec.Node(), subjob.DataStream(sec.Spec().ID, up.StreamID), false, part)
	}
	for _, t := range lc.cfg.Wiring.DownstreamTargets() {
		sec.Out().SubscribePart(t.Node, t.Stream, t.Active, t.Part)
	}
}

// registerReadState receives a rollback's read-state on m, the primary's
// machine, replacing any previous registration. The handler passes the
// payload to the lifecycle goroutine, which folds it: the machine's one
// dispatch goroutine must not wait for the primary's PEs to park.
func (lc *Lifecycle) registerReadState(m *machine.Machine) {
	stream := subjob.ReadStateStream(lc.cfg.Spec.ID)
	lc.mu.Lock()
	old := lc.rsOn
	lc.rsOn = m
	lc.mu.Unlock()
	if old != nil && old != m {
		old.UnregisterStream(stream)
	}
	m.RegisterStream(stream, func(_ transport.NodeID, msg transport.Message) {
		select {
		case lc.readState <- msg.State:
		default:
		}
	})
}

// watchChainBreaks makes the standby-side stores report unfoldable deltas
// to the event loop, which forces the manager's next checkpoint full.
func (lc *Lifecycle) watchChainBreaks() {
	report := func() { lc.post(EventChainBreak, lc.clk.Now()) }
	lc.mu.Lock()
	standby, store := lc.standby, lc.store
	lc.mu.Unlock()
	if standby != nil {
		standby.SetOnChainBreak(report)
	}
	if store != nil {
		store.SetOnChainBreak(report)
	}
}

// Stop halts the event loop and tears down everything the lifecycle owns:
// detector, checkpoint manager, ackers, standby-side stores and both
// runtime copies. Started or not, it hands every scheduler slot the
// subjob holds back to the placer, once.
func (lc *Lifecycle) Stop() {
	defer lc.releaseSlots()
	lc.mu.Lock()
	if !lc.started {
		lc.mu.Unlock()
		return
	}
	lc.mu.Unlock()
	select {
	case <-lc.stop:
	default:
		close(lc.stop)
	}
	<-lc.done

	lc.mu.Lock()
	det, cm, ackers := lc.det, lc.cm, lc.ackers
	standby, store := lc.standby, lc.store
	sec, pri, rsOn := lc.secondary, lc.primary, lc.rsOn
	lc.mu.Unlock()
	if det != nil {
		det.Stop()
	}
	if cm != nil {
		cm.Stop()
	}
	for _, a := range ackers {
		a.Stop()
	}
	if standby != nil {
		standby.Close()
	}
	if store != nil {
		store.Close()
	}
	if sec != nil {
		sec.Stop()
	}
	pri.Stop()
	if rsOn != nil {
		rsOn.UnregisterStream(subjob.ReadStateStream(lc.cfg.Spec.ID))
	}
}

// releaseSlots frees the subjob's scheduler slots through the placer the
// first time it is called: those the build placed, whether or not the
// lifecycle ever started, and any a re-arm added.
func (lc *Lifecycle) releaseSlots() {
	if lc.cfg.Placer == nil {
		return
	}
	lc.mu.Lock()
	done := lc.released
	lc.released = true
	lc.mu.Unlock()
	if !done {
		lc.cfg.Placer.Release(lc.cfg.Spec.ID)
	}
}

// --- accessors -----------------------------------------------------------

// State returns the current lifecycle state.
func (lc *Lifecycle) State() State {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.state
}

// Active reports whether the subjob is currently switched over to its
// standby.
func (lc *Lifecycle) Active() bool { return lc.State() == SwitchedOver }

// Policy returns the lifecycle's standby policy.
func (lc *Lifecycle) Policy() StandbyPolicy { return lc.pol }

// PrimaryRuntime returns the copy currently serving as primary.
func (lc *Lifecycle) PrimaryRuntime() *subjob.Runtime {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.primary
}

// SecondaryRuntime returns the current standby copy, or nil (passive
// standby keeps state in a store, not a copy; active standby returns its
// twin).
func (lc *Lifecycle) SecondaryRuntime() *subjob.Runtime {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.secondary
}

// StandbyMachine returns the machine currently hosting the standby side.
func (lc *Lifecycle) StandbyMachine() *machine.Machine {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.secondaryM
}

// Switches returns the recorded hybrid switchover events.
func (lc *Lifecycle) Switches() []SwitchEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]SwitchEvent(nil), lc.switches...)
}

// Migrations returns the recorded passive-standby migration events.
func (lc *Lifecycle) Migrations() []MigrationEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]MigrationEvent(nil), lc.migrations...)
}

// Failovers returns every failover the lifecycle performed — switchovers
// and migrations — in one list; a subjob's policy only ever records one
// kind, so this is the mode-agnostic accessor experiments use.
func (lc *Lifecycle) Failovers() []SwitchEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := append([]SwitchEvent(nil), lc.switches...)
	return append(out, lc.migrations...)
}

// Rollbacks returns the recorded rollback events.
func (lc *Lifecycle) Rollbacks() []RollbackEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]RollbackEvent(nil), lc.rollbacks...)
}

// Promotions returns the recorded fail-stop promotions.
func (lc *Lifecycle) Promotions() []PromoteEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]PromoteEvent(nil), lc.promotions...)
}

// Rearms returns the recorded scheduler-driven re-arm decisions: every
// time a placer-supplied host re-established protection.
func (lc *Lifecycle) Rearms() []RearmEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]RearmEvent(nil), lc.rearms...)
}

// Transitions returns the recorded transition log.
func (lc *Lifecycle) Transitions() []Transition {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]Transition(nil), lc.transitions...)
}

// ChainBreaks returns how many checkpoint-chain breaks were reported.
func (lc *Lifecycle) ChainBreaks() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.chainBreaks
}

// Detector returns the current heartbeat detector, or nil.
func (lc *Lifecycle) Detector() *detect.Heartbeat {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.det
}

// Checkpoint returns the current checkpoint manager, or nil.
func (lc *Lifecycle) Checkpoint() *checkpoint.Core {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.cm
}

// Store returns the checkpoint store of store-based policies (passive
// standby, the hybrid no-pre-deployment ablation), or nil.
func (lc *Lifecycle) Store() *checkpoint.Store {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.store
}

// StandbyStoreRef returns the in-memory standby store of the hybrid
// policy, or nil.
func (lc *Lifecycle) StandbyStoreRef() *StandbyStore {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.standby
}

// --- record helpers (called by policies on the event goroutine) ----------

func (lc *Lifecycle) recordSwitch(ev SwitchEvent) {
	lc.mu.Lock()
	lc.switches = append(lc.switches, ev)
	lc.mu.Unlock()
}

func (lc *Lifecycle) recordMigration(ev MigrationEvent) {
	lc.mu.Lock()
	lc.migrations = append(lc.migrations, ev)
	lc.mu.Unlock()
}

// NoteMigration records a state migration performed outside the event loop
// — the live-rescaling cutover reuses the migration bookkeeping, so the
// metrics registry reports rescales alongside failovers.
func (lc *Lifecycle) NoteMigration(ev MigrationEvent) { lc.recordMigration(ev) }

func (lc *Lifecycle) recordRollback(ev RollbackEvent) {
	lc.mu.Lock()
	lc.rollbacks = append(lc.rollbacks, ev)
	lc.mu.Unlock()
}

func (lc *Lifecycle) recordPromotion(ev PromoteEvent) {
	lc.mu.Lock()
	lc.promotions = append(lc.promotions, ev)
	lc.mu.Unlock()
}

func (lc *Lifecycle) recordRearm(ev RearmEvent) {
	lc.mu.Lock()
	lc.rearms = append(lc.rearms, ev)
	lc.mu.Unlock()
}

// LifecycleStats is a JSON-marshalable view of one subjob's lifecycle,
// exported through the metrics registry: mode, current state, failover
// counters and the full transition log.
type LifecycleStats struct {
	Subjob      string   `json:"subjob"`
	Mode        string   `json:"mode"`
	State       string   `json:"state"`
	Active      bool     `json:"standby_active"`
	Switchovers int      `json:"switchovers"`
	Rollbacks   int      `json:"rollbacks"`
	Migrations  int      `json:"migrations"`
	Promotions  int      `json:"promotions"`
	Rearms      int      `json:"rearms"`
	ChainBreaks int      `json:"chain_breaks"`
	Transitions []string `json:"transitions"`
}

// Stats captures the lifecycle's counters and transition log.
func (lc *Lifecycle) Stats() LifecycleStats {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	st := LifecycleStats{
		Subjob:      lc.cfg.Spec.ID,
		Mode:        lc.pol.Mode(),
		State:       lc.state.String(),
		Active:      lc.state == SwitchedOver,
		Switchovers: len(lc.switches),
		Rollbacks:   len(lc.rollbacks),
		Migrations:  len(lc.migrations),
		Promotions:  len(lc.promotions),
		Rearms:      len(lc.rearms),
		ChainBreaks: lc.chainBreaks,
		Transitions: make([]string, len(lc.transitions)),
	}
	for i, tr := range lc.transitions {
		st.Transitions[i] = tr.String()
	}
	return st
}
