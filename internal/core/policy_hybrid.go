package core

import (
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// HybridPolicy is the paper's contribution (Section IV): a pre-deployed
// suspended secondary refreshed in memory, switchover on the first missed
// heartbeat, read-state-on-rollback when the primary returns, and
// fail-stop promotion (with spare re-protection) when the failure
// persists. The ablation switches in Options select the degraded variants
// Section IV-B measures.
type HybridPolicy struct {
	opts Options
}

// NewHybridPolicy creates the hybrid policy with o (zero value = the
// paper's full design).
func NewHybridPolicy(o Options) *HybridPolicy {
	return &HybridPolicy{opts: o.withDefaults()}
}

// Options returns the policy's resolved options.
func (hp *HybridPolicy) Options() Options { return hp.opts }

// Mode implements StandbyPolicy.
func (hp *HybridPolicy) Mode() string { return "hybrid" }

// InitialState implements StandbyPolicy.
func (hp *HybridPolicy) InitialState() State { return Protected }

// PreDeploy implements StandbyPolicy: the standby exists up front and is
// suspended, unless the NoPreDeploy ablation defers it to switchover.
func (hp *HybridPolicy) PreDeploy() (bool, bool) { return !hp.opts.NoPreDeploy, true }

// NeedsStandbyMachine implements StandbyPolicy.
func (hp *HybridPolicy) NeedsStandbyMachine() bool { return true }

// PromoteAfter implements StandbyPolicy.
func (hp *HybridPolicy) PromoteAfter() time.Duration { return hp.opts.FailStopAfter }

// Arm implements StandbyPolicy: deploy the standby side (pre-deployed and
// early-connected unless ablated), start the sweeping checkpoint manager
// on the primary and the heartbeat detector on the standby machine.
func (hp *HybridPolicy) Arm(lc *Lifecycle) error { return hp.arm(lc, false) }

// arm is the shared body; partial selects bounded-error checkpointing for
// the sweeping manager (the approx policy's wrapper sets it). It reads the
// live secondary fields — not the construction-time config — so re-arms
// onto a scheduler-supplied replacement machine reuse it unchanged.
func (hp *HybridPolicy) arm(lc *Lifecycle, partial bool) error {
	spec := lc.cfg.Spec
	secM := lc.StandbyMachine()

	if !hp.opts.NoPreDeploy {
		sec := lc.SecondaryRuntime()
		if sec == nil {
			// A nil secondary here means a re-arm onto a replacement host
			// mid-stream (the builders pre-create the initial standby). Seed
			// the fresh copy synchronously from the live primary before it
			// starts: the sweeping chain is asynchronous, and a switchover in
			// the window before its first checkpoint lands would otherwise
			// promote an empty copy whose restarted output sequences the
			// downstream dedup floors silently swallow.
			var err error
			sec, err = subjob.New(spec, secM, true)
			if err != nil {
				return err
			}
			lc.applyPartitioning(sec)
			if err := seedStandby(lc.PrimaryRuntime(), sec); err != nil {
				return err
			}
			sec.Start()
			if !hp.opts.NoEarlyConnection {
				lc.connectStandby(sec)
			}
		}
		// Pre-deployment pays the deployment cost up front, off the
		// critical path.
		secM.CPU().Execute(hp.opts.DeployCost)
		acker := checkpoint.NewAcker(sec, lc.clk, hp.opts.AckInterval)
		lc.mu.Lock()
		lc.secondary = sec
		lc.standby = newStandbyStore(sec, hp.opts.Catalog)
		lc.ackers = append(lc.ackers, acker)
		lc.mu.Unlock()
		acker.Start()
	} else {
		backend := checkpoint.InMemory
		if hp.opts.DiskStore {
			backend = checkpoint.SimulatedDisk
		}
		lc.mu.Lock()
		lc.store = checkpoint.NewStore(secM, spec.ID, &checkpoint.Image{}, checkpoint.StoreOptions{
			Backend: backend,
			Catalog: hp.opts.Catalog,
		})
		lc.mu.Unlock()
	}

	cm := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:        lc.PrimaryRuntime(),
		Clock:          lc.clk,
		Interval:       hp.opts.CheckpointInterval,
		StoreNode:      secM.ID(),
		Costs:          hp.opts.CheckpointCosts,
		RebaseEvery:    hp.opts.CheckpointRebaseEvery,
		RebaseAdaptive: hp.opts.CheckpointRebaseAdaptive,
		MaxInFlight:    hp.opts.CheckpointMaxInFlight,
		Partial:        partial,
		SeqBase:        lc.seqBase(),
	})
	lc.mu.Lock()
	lc.cm = cm
	lc.mu.Unlock()
	cm.Start()
	lc.watchChainBreaks()

	lc.registerReadStateAck(lc.PrimaryRuntime().Machine())
	lc.startDetector(secM, lc.PrimaryRuntime().Machine().ID(), spec.ID,
		hp.opts.HeartbeatInterval, hp.opts.MissThreshold, hp.opts.RecoverThreshold)
	return nil
}

// Failover implements StandbyPolicy: the switchover of Section IV-B.
// Resume the pre-deployed copy (or deploy one from the store under
// NoPreDeploy), flip the early connections active — which retransmits
// unacknowledged upstream data — and retransmit the standby's own
// unacknowledged outputs.
func (hp *HybridPolicy) Failover(lc *Lifecycle, detectedAt time.Time) State {
	sec := lc.SecondaryRuntime()
	secM := lc.StandbyMachine()

	if hp.opts.NoPreDeploy {
		// Ablation: deploy the standby from the stored checkpoint on demand,
		// paying the full deployment cost on the critical path.
		secM.CPU().Execute(hp.opts.DeployCost)
		rt, err := subjob.New(lc.cfg.Spec, secM, true)
		if err != nil {
			return Protected
		}
		lc.applyPartitioning(rt)
		if snap, ok := lc.Store().Latest(); ok {
			if err := rt.Restore(snap); err != nil {
				return Protected
			}
		}
		rt.Start()
		lc.mu.Lock()
		lc.secondary = rt
		lc.mu.Unlock()
		sec = rt
	}

	// Resuming the suspended copy is just resetting the processing-loop
	// flags, about a quarter of a deployment.
	secM.CPU().Execute(hp.opts.ResumeCost)
	sec.Resume()

	ups := lc.cfg.Wiring.UpstreamOutputs()
	if hp.opts.NoEarlyConnection || hp.opts.NoPreDeploy {
		// Ablation: establish connections now, paying per-connection cost.
		downs := lc.cfg.Wiring.DownstreamTargets()
		secM.CPU().Execute(hp.opts.ConnectCost * time.Duration(len(ups)+len(downs)))
		part := lc.upPart()
		for _, up := range ups {
			up.SubscribePart(sec.Node(), subjob.DataStream(sec.Spec().ID, up.StreamID), false, part)
		}
		for _, t := range downs {
			sec.Out().SubscribePart(t.Node, t.Stream, t.Active, t.Part)
		}
	}
	for _, up := range ups {
		// Activation retransmits everything the standby has not seen; its
		// restart point is covered by the sweeping-checkpoint invariant.
		up.Activate(sec.Node(), true)
	}
	sec.Out().RetransmitAll()

	lc.recordSwitch(SwitchEvent{DetectedAt: detectedAt, ReadyAt: lc.clk.Now()})
	return SwitchedOver
}

// Restore implements StandbyPolicy: the rollback once the primary is
// responsive again. The standby is suspended, the primary reads the
// standby's freshest state back ("read state on rollback") so it can jump
// past the backlog it accumulated while stalled, and upstream connections
// to the standby are deactivated.
func (hp *HybridPolicy) Restore(lc *Lifecycle, at time.Time) State {
	lc.transient(RollingBack)
	sec := lc.SecondaryRuntime()
	pri := lc.PrimaryRuntime()

	snap := sec.SuspendAndSnapshot()
	for _, up := range lc.cfg.Wiring.UpstreamOutputs() {
		up.Activate(sec.Node(), false)
	}

	units := 0
	adopted := false
	if !hp.opts.NoReadState {
		units = snap.ElementUnits()
		// The state transfer is a real message so its size is accounted in
		// the experiment's overhead figures (Figure 10).
		if state, err := snap.Encode(); err == nil {
			sec.Machine().Send(pri.Node(), transport.Message{
				Kind:         transport.KindReadStateResp,
				Stream:       subjob.ReadStateStream(lc.cfg.Spec.ID),
				State:        state,
				ElementCount: units,
			})
			select {
			case <-lc.rsAckCh:
			case <-lc.clk.After(5 * time.Second):
			case <-lc.stop:
				return RollingBack
			}
		}
		pri.WithPaused(func() {
			if positionsCover(snap.Consumed, pri.ConsumedPositions()) {
				if err := pri.Restore(snap); err == nil {
					adopted = true
				}
			}
		})
	}

	if hp.opts.NoPreDeploy {
		// Ablation: the on-demand copy is discarded; the next failure
		// deploys a fresh one from the store.
		sec.Stop()
		lc.mu.Lock()
		lc.secondary = nil
		lc.mu.Unlock()
	}

	lc.recordRollback(RollbackEvent{
		StartedAt:  at,
		DoneAt:     lc.clk.Now(),
		StateUnits: units,
		Adopted:    adopted,
	})
	return Protected
}

// positionsCover reports whether the standby's positions are at or beyond
// the primary's on every stream — the guard that prevents a rollback after
// a false alarm from regressing a primary that was actually ahead.
func positionsCover(standby, primary map[string]uint64) bool {
	for s, v := range primary {
		if standby[s] < v {
			return false
		}
	}
	return true
}

// Promote implements StandbyPolicy: the activated standby becomes the
// permanent primary after the failure persisted past the fail-stop
// threshold, and — when a spare machine is available — a new suspended
// standby is instantiated there, re-protecting the subjob.
func (hp *HybridPolicy) Promote(lc *Lifecycle, _ time.Time) State { return hp.promote(lc, false) }

// promote is the shared body; partial selects bounded-error checkpointing
// for the re-armed sweeping manager (the approx policy's wrapper sets it).
func (hp *HybridPolicy) promote(lc *Lifecycle, partial bool) State {
	lc.transient(Promoted)
	lc.mu.Lock()
	oldPrimary := lc.primary
	sec := lc.secondary
	oldCM := lc.cm
	oldDet := lc.det
	oldAckers := lc.ackers
	oldStandby := lc.standby
	lc.ackers = nil
	lc.standby = nil
	lc.mu.Unlock()

	// The old primary is presumed dead. Tear its stack down without
	// blocking the event loop (its machine may be unresponsive).
	go func() {
		if oldDet != nil {
			oldDet.Stop()
		}
		if oldCM != nil {
			oldCM.Stop()
		}
		oldPrimary.Stop()
	}()
	// The old standby store refreshed the copy that is now primary; the
	// replacement standby gets a store of its own. Nothing the old one
	// still folds may force the new manager to re-base.
	if oldStandby != nil {
		oldStandby.SetOnChainBreak(nil)
		go oldStandby.Close()
	}

	// Remove the dead primary from every upstream queue so it stops gating
	// trims, and drop the read-state plumbing bound to its machine.
	for _, up := range lc.cfg.Wiring.UpstreamOutputs() {
		up.Unsubscribe(oldPrimary.Node())
	}
	oldPrimary.Machine().UnregisterStream(subjob.ReadStateStream(lc.cfg.Spec.ID))

	lc.mu.Lock()
	lc.primary = sec
	lc.secondary = nil
	lc.mu.Unlock()
	lc.recordPromotion(PromoteEvent{At: lc.clk.Now()})

	// The promoted copy must stop acking on processing: from here on its
	// checkpoint manager acknowledges after checkpointing, as passive
	// standby correctness requires.
	for _, a := range oldAckers {
		a.Stop()
	}

	spare := lc.cfg.SpareMachine
	if spare == nil || spare == sec.Machine() || spare.Crashed() {
		spare = nil
	}
	placed := false
	if placer := lc.cfg.Placer; placer != nil {
		// Keep the scheduler's books straight — the primary moved — and let
		// it pick the replacement standby host when no static spare remains.
		placer.NotePrimary(lc.cfg.Spec.ID, sec.Machine())
		if spare == nil {
			spare = placer.PlaceStandby(lc.cfg.Spec.ID, sec.Machine())
			placed = spare != nil
		}
	}
	if spare == nil {
		// No (live) spare and no schedulable capacity: the subjob runs
		// unprotected, like passive standby after exhausting its secondary.
		// With a placer, the periodic re-arm keeps retrying as capacity
		// returns.
		return Unprotected
	}

	newSec, err := subjob.New(lc.cfg.Spec, spare, true)
	if err != nil {
		return Unprotected
	}
	lc.applyPartitioning(newSec)
	// Same seeding as a re-arm: the replacement standby inherits the
	// promoted primary's sequence space immediately, closing the window
	// before its first sweeping checkpoint arrives.
	if err := seedStandby(sec, newSec); err != nil {
		return Unprotected
	}
	spare.CPU().Execute(hp.opts.DeployCost)
	newSec.Start()
	lc.connectStandby(newSec)

	lc.mu.Lock()
	lc.secondary = newSec
	lc.secondaryM = spare
	lc.standby = newStandbyStore(newSec, hp.opts.Catalog)
	lc.mu.Unlock()

	newCM := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:        sec,
		Clock:          lc.clk,
		Interval:       hp.opts.CheckpointInterval,
		StoreNode:      spare.ID(),
		Costs:          hp.opts.CheckpointCosts,
		RebaseEvery:    hp.opts.CheckpointRebaseEvery,
		RebaseAdaptive: hp.opts.CheckpointRebaseAdaptive,
		MaxInFlight:    hp.opts.CheckpointMaxInFlight,
		Partial:        partial,
		SeqBase:        lc.seqBase(),
	})
	newAcker := checkpoint.NewAcker(newSec, lc.clk, hp.opts.AckInterval)
	lc.mu.Lock()
	lc.cm = newCM
	lc.ackers = []*checkpoint.Acker{newAcker}
	lc.mu.Unlock()
	newCM.Start()
	newAcker.Start()
	lc.watchChainBreaks()

	// Re-armed: a new detector on the spare machine watches the promoted
	// primary, so the subjob survives the next failure too.
	lc.registerReadStateAck(sec.Machine())
	lc.startDetector(spare, sec.Machine().ID(), lc.cfg.Spec.ID,
		hp.opts.HeartbeatInterval, hp.opts.MissThreshold, hp.opts.RecoverThreshold)
	if placed {
		lc.recordRearm(RearmEvent{At: lc.clk.Now(), Host: string(spare.ID())})
	}
	return Protected
}

// Rearm implements Rearmer: the scheduler-backed protection repair driven
// by the lifecycle's periodic EventRearm.
func (hp *HybridPolicy) Rearm(lc *Lifecycle, at time.Time) State { return hp.rearm(lc, false) }

// rearm is the shared body; partial selects bounded-error checkpointing,
// as in arm. From Protected it is a health check: nothing happens while
// the standby machine is alive. When the standby machine is dead (a crash
// the detector cannot see — the detector lived there) or the state is
// Unprotected (a spare-less promotion), it asks the placer for a
// replacement host, tears the old standby apparatus down and re-arms onto
// the new machine.
func (hp *HybridPolicy) rearm(lc *Lifecycle, partial bool) State {
	cur := lc.State()
	pri := lc.PrimaryRuntime()
	if pri.Machine().Crashed() {
		// No live primary to protect; this is the detector's problem, not
		// the scheduler's.
		return cur
	}
	secM := lc.StandbyMachine()
	sec := lc.SecondaryRuntime()
	healthy := secM != nil && !secM.Crashed()
	if !hp.opts.NoPreDeploy {
		healthy = healthy && sec != nil
	}
	if cur == Protected && healthy {
		return cur
	}
	target := lc.cfg.Placer.PlaceStandby(lc.cfg.Spec.ID, pri.Machine())
	if target == nil {
		return cur
	}

	// Tear down the old standby apparatus before arming on the new host.
	lc.mu.Lock()
	oldDet, oldCM, oldAckers := lc.det, lc.cm, lc.ackers
	oldStandby, oldStore := lc.standby, lc.store
	oldSec := lc.secondary
	lc.det, lc.cm, lc.ackers = nil, nil, nil
	lc.standby, lc.store = nil, nil
	lc.secondary = nil
	lc.secondaryM = target
	lc.mu.Unlock()
	if oldSec != nil {
		for _, up := range lc.cfg.Wiring.UpstreamOutputs() {
			up.Unsubscribe(oldSec.Node())
		}
	}
	// From Protected the old manager lives on the live primary, the runtime
	// its successor is about to capture from: stop it first, so the two
	// never interleave captures there. From Unprotected it may be the deposed
	// primary's, and like everything on the old standby machine it may be
	// unresponsive; don't block the event loop on that teardown.
	if oldCM != nil && cur == Protected {
		oldCM.Stop()
		oldCM = nil
	}
	go func() {
		if oldDet != nil {
			oldDet.Stop()
		}
		if oldCM != nil {
			oldCM.Stop()
		}
		for _, a := range oldAckers {
			a.Stop()
		}
		if oldStandby != nil {
			oldStandby.Close()
		}
		if oldStore != nil {
			oldStore.Close()
		}
		if oldSec != nil {
			oldSec.Stop()
		}
	}()

	if err := hp.arm(lc, partial); err != nil {
		return Unprotected
	}
	lc.recordRearm(RearmEvent{At: lc.clk.Now(), Host: string(target.ID())})
	return Protected
}

// seedStandby synchronously copies the live primary's state into a
// freshly created (still suspended) standby, so the standby holds the
// primary's output sequence space and consumed positions from the moment
// it exists; the sweeping chain refreshes it from this baseline. Snapshot
// (not CaptureFull) leaves the primary's delta tracking untouched, so a
// checkpoint manager still winding down on the same runtime is unharmed.
func seedStandby(pri, sec *subjob.Runtime) error {
	var snap *subjob.Snapshot
	pri.WithPaused(func() { snap = pri.Snapshot() })
	return sec.Restore(snap)
}
