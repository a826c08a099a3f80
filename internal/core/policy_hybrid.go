package core

import (
	"fmt"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/detect"
	"streamha/internal/machine"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// HybridPolicy is the paper's contribution (Section IV): a pre-deployed
// suspended secondary refreshed in memory, switchover on the first missed
// heartbeat, read-state-on-rollback when the primary returns, and
// fail-stop promotion (with spare re-protection) when the failure
// persists. The ablation switches in Options select the degraded variants
// Section IV-B measures. Conventional passive standby is the same policy
// with those optimisations off and a permanent failover (NewPassivePolicy);
// approx embeds it (NewApproxPolicy).
type HybridPolicy struct {
	opts Options
	// migrate makes every failover permanent, the passive-standby way: the
	// on-demand copy becomes the primary and the roles swap (see migrateTo).
	migrate bool
	// partial selects bounded-error checkpointing for every sweeping
	// manager the policy starts (approx with a non-zero budget).
	partial bool
}

// NewHybridPolicy creates the hybrid policy with o (zero value = the
// paper's full design).
func NewHybridPolicy(o Options) *HybridPolicy {
	return &HybridPolicy{opts: o.withDefaults()}
}

// NewPassivePolicy creates conventional passive standby: the hybrid policy
// without pre-deployment or early connections, so the primary checkpoints
// to a store on the secondary machine and after MissThreshold (three, by
// convention) heartbeat misses a recovery copy is deployed there on demand.
// There is no rollback: after a migration the former secondary machine is
// the new primary's home and the former primary machine becomes the new
// secondary — so under transient failures the subjob keeps experiencing
// spikes on whichever machine it lands on, as the paper observes in
// Figure 4. The policy re-arms after every migration, so repeated failures
// keep being survived while both machines stay alive. The store folds
// deltas into its image, so after its first full the manager ships deltas,
// and a full again only when one is needed (see neverRebase).
func NewPassivePolicy(o PassiveOptions) *HybridPolicy {
	if o.MissThreshold <= 0 {
		o.MissThreshold = 3
	}
	hp := NewHybridPolicy(Options{
		HeartbeatInterval:     o.HeartbeatInterval,
		MissThreshold:         o.MissThreshold,
		CheckpointInterval:    o.CheckpointInterval,
		CheckpointCosts:       o.CheckpointCosts,
		CheckpointRebaseEvery: neverRebase,
		NoPreDeploy:           true,
		NoEarlyConnection:     true,
	})
	hp.migrate = true
	return hp
}

// Mode implements StandbyPolicy.
func (hp *HybridPolicy) Mode() string {
	if hp.migrate {
		return "passive"
	}
	return "hybrid"
}

// InitialState implements StandbyPolicy.
func (hp *HybridPolicy) InitialState() State { return Protected }

// PreDeploy implements StandbyPolicy: the standby exists up front and is
// suspended, unless the NoPreDeploy ablation defers it to switchover. A
// migrating copy is never suspended.
func (hp *HybridPolicy) PreDeploy() (bool, bool) { return !hp.opts.NoPreDeploy, !hp.migrate }

// NeedsStandbyMachine implements StandbyPolicy.
func (hp *HybridPolicy) NeedsStandbyMachine() bool { return true }

// PromoteAfter implements StandbyPolicy.
func (hp *HybridPolicy) PromoteAfter() time.Duration { return hp.opts.FailStopAfter }

// Arm implements StandbyPolicy: deploy the standby side (pre-deployed and
// early-connected unless ablated), start the sweeping checkpoint manager
// on the primary and the heartbeat detector on the standby machine. It
// reads the live secondary fields — not the construction-time config — so
// promotions, migrations and re-arms onto another machine reuse it.
func (hp *HybridPolicy) Arm(lc *Lifecycle) error {
	spec := lc.cfg.Spec
	secM := lc.StandbyMachine()
	pri := lc.PrimaryRuntime()

	if !hp.opts.NoPreDeploy {
		sec := lc.SecondaryRuntime()
		if sec == nil {
			// A nil secondary here means a re-arm onto a replacement host
			// mid-stream (the builders pre-create the initial standby). Seed
			// the fresh copy synchronously from the live primary before it
			// starts: the sweeping chain is asynchronous, and a switchover in
			// the window before its first checkpoint lands would otherwise
			// promote an empty copy whose restarted output sequences the
			// downstream dedup floors silently swallow. Snapshot (not
			// CaptureFull) leaves the primary's delta tracking alone, so a
			// manager still winding down on it is unharmed.
			var err error
			sec, err = subjob.New(spec, secM, true)
			if err != nil {
				return err
			}
			lc.applyPartitioning(sec)
			var seed []byte
			pri.WithPaused(func() { seed, err = pri.Snapshot().Encode() })
			if err != nil {
				return err
			}
			if Fold(sec, seed) != checkpoint.Folded {
				return fmt.Errorf("core: %s: the new standby did not take the primary's state", spec.ID)
			}
			sec.Start()
			if !hp.opts.NoEarlyConnection {
				lc.connectStandby(sec)
			}
		}
		// Pre-deployment pays the deployment cost up front, off the
		// critical path.
		secM.CPU().Execute(deployCost)
		// While active, the standby acknowledges as often as the primary
		// checkpoints.
		acker := checkpoint.NewAcker(sec, lc.clk, hp.opts.CheckpointInterval)
		lc.mu.Lock()
		lc.secondary = sec
		lc.standby = newStandbyStore(sec)
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
		})
		lc.mu.Unlock()
	}

	cm := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:     pri,
		Clock:       lc.clk,
		Interval:    hp.opts.CheckpointInterval,
		StoreNode:   secM.ID(),
		Costs:       hp.opts.CheckpointCosts,
		RebaseEvery: hp.opts.CheckpointRebaseEvery,
		Partial:     hp.partial,
	})
	lc.mu.Lock()
	lc.cm = cm
	lc.mu.Unlock()
	cm.Start()
	lc.watchChainBreaks()

	lc.registerReadState(pri.Machine())
	session := spec.ID
	if hp.migrate {
		// Every migration swaps monitor and target between two machines; a
		// session per monitor keeps the reply streams of successive
		// detectors apart while the deposed one is torn down.
		session += "/" + string(secM.ID())
	}
	lc.startDetector(secM, pri.Machine().ID(), session, hp.opts.HeartbeatInterval, hp.opts.MissThreshold)
	return nil
}

// Failover implements StandbyPolicy: the switchover of Section IV-B.
// Resume the pre-deployed copy (or deploy one from the store under
// NoPreDeploy), flip the early connections active — which retransmits
// unacknowledged upstream data — and retransmit the standby's own
// unacknowledged outputs. Under migrate the deployed copy is not resumed
// but takes over for good.
func (hp *HybridPolicy) Failover(lc *Lifecycle, detectedAt time.Time) State {
	sec := lc.SecondaryRuntime()
	if hp.opts.NoPreDeploy {
		if sec = hp.deploy(lc); sec == nil {
			return Unprotected
		}
	}
	secM := sec.Machine()

	if !hp.migrate {
		// Resuming the suspended copy is just resetting the processing-loop
		// flags, about a quarter of a deployment.
		secM.CPU().Execute(resumeCost)
		sec.Resume()
	}

	ups := lc.cfg.Wiring.UpstreamOutputs()
	if hp.opts.NoEarlyConnection || hp.opts.NoPreDeploy {
		// Ablation: establish connections now, paying per-connection cost.
		downs := lc.cfg.Wiring.DownstreamTargets()
		secM.CPU().Execute(connectCost * time.Duration(len(ups)+len(downs)))
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

	if hp.migrate {
		return hp.migrateTo(lc, sec, detectedAt)
	}
	lc.recordSwitch(SwitchEvent{DetectedAt: detectedAt, ReadyAt: lc.clk.Now()})
	return SwitchedOver
}

// deploy is the on-demand deployment of the NoPreDeploy ablation and of
// passive standby: a copy on the standby machine restored from the stored
// checkpoint, paying the full deployment cost on the critical path. It
// returns nil when no copy could be deployed.
func (hp *HybridPolicy) deploy(lc *Lifecycle) *subjob.Runtime {
	target, store := lc.StandbyMachine(), lc.Store()
	if target.Crashed() {
		// No live statically named machine to recover on. With a placer the
		// scheduler supplies a replacement host; the checkpoints died with
		// the store machine, so the copy restarts empty and relies on the
		// upstream replay. Without one, selection of an alternative host is
		// outside the paper's scope.
		if lc.cfg.Placer == nil {
			return nil
		}
		if target = lc.cfg.Placer.PlacePrimary(lc.cfg.Spec.ID, lc.PrimaryRuntime().Machine()); target == nil {
			return nil
		}
		store = nil
	}
	if hp.migrate {
		lc.transient(Migrating)
	}

	target.CPU().Execute(deployCost)
	rt, err := subjob.New(lc.cfg.Spec, target, !hp.migrate)
	if err != nil {
		return nil
	}
	lc.applyPartitioning(rt)
	if store != nil {
		if snap, ok := store.Latest(); ok {
			if err := rt.Restore(snap); err != nil {
				return nil
			}
		}
	}
	rt.Start()
	if !hp.migrate {
		lc.mu.Lock()
		lc.secondary = rt
		lc.mu.Unlock()
	}
	return rt
}

// migrateTo completes a passive-standby failover: rt, running and
// connected, is the primary from now on. The old stack goes, and the
// former primary machine becomes the new standby machine.
func (hp *HybridPolicy) migrateTo(lc *Lifecycle, rt *subjob.Runtime, detectedAt time.Time) State {
	readyAt := lc.clk.Now()
	lc.mu.Lock()
	old, oldDet, oldCM, oldStore := lc.primary, lc.det, lc.cm, lc.store
	lc.primary = rt
	lc.secondaryM = old.Machine()
	lc.mu.Unlock()
	depose(lc, old, oldDet, oldCM)
	if oldStore != nil {
		oldStore.Close()
	}
	lc.recordMigration(MigrationEvent{DetectedAt: detectedAt, ReadyAt: readyAt})
	return hp.reprotect(lc, rt, old.Machine())
}

// reprotect re-arms around rt, a primary that just moved, with host as the
// new standby machine. A missing or crashed host leaves no live machine for
// the standby side: with a placer the scheduler supplies one; without, the
// subjob keeps running unprotected rather than arming apparatus on a dead
// machine.
func (hp *HybridPolicy) reprotect(lc *Lifecycle, rt *subjob.Runtime, host *machine.Machine) State {
	if host != nil && host.Crashed() {
		host = nil
	}
	placed := false
	if placer := lc.cfg.Placer; placer != nil {
		// Keep the scheduler's books straight — the primary moved — and let
		// it pick the standby host when none remains.
		placer.NotePrimary(lc.cfg.Spec.ID, rt.Machine())
		if host == nil {
			host = placer.PlaceStandby(lc.cfg.Spec.ID, rt.Machine())
			placed = host != nil
		}
	}
	if host == nil {
		// With a placer, the periodic re-arm keeps retrying as capacity
		// returns.
		return Unprotected
	}
	lc.mu.Lock()
	lc.secondaryM = host
	lc.mu.Unlock()
	if err := hp.Arm(lc); err != nil {
		return Unprotected
	}
	if placed {
		lc.recordRearm(RearmEvent{At: lc.clk.Now(), Host: string(host.ID())})
	}
	return Protected
}

// depose retires a primary copy that lost its role. Its stack is torn down
// without blocking the event loop, since its machine may be unresponsive;
// until then the old copy may limp along, and the downstream deduplicates
// whatever it still emits. It leaves every upstream queue at once, so it
// stops gating trims, and the read-state plumbing bound to its machine goes.
func depose(lc *Lifecycle, old *subjob.Runtime, det *detect.Heartbeat, cm *checkpoint.Core) {
	go func() {
		if det != nil {
			det.Stop()
		}
		if cm != nil {
			cm.Stop()
		}
		old.Stop()
	}()
	for _, up := range lc.cfg.Wiring.UpstreamOutputs() {
		up.Unsubscribe(old.Node())
	}
	old.Machine().UnregisterStream(subjob.ReadStateStream(lc.cfg.Spec.ID))
}

// Restore implements StandbyPolicy: the rollback once the primary is
// responsive again. The standby is suspended, the primary reads the
// standby's freshest state back ("read state on rollback") so it can jump
// past the backlog it accumulated while stalled, and upstream connections
// to the standby are deactivated. The state travels as a message, whose
// size the overhead figures account (Figure 10), and the primary adopts
// only what it received: a response lost in transit adopts nothing.
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
		if state, err := snap.Encode(); err == nil {
			select {
			case <-lc.readState: // a response that outlived an earlier wait
			default:
			}
			sec.Machine().Send(pri.Node(), transport.Message{
				Kind:         transport.KindReadStateResp,
				Stream:       subjob.ReadStateStream(lc.cfg.Spec.ID),
				State:        state,
				ElementCount: units,
			})
			var got []byte
			select {
			case got = <-lc.readState:
			case <-lc.clk.After(5 * time.Second):
			case <-lc.stop:
				return RollingBack
			}
			if got != nil {
				// The fold refreshes only a parked copy.
				pri.Suspend()
				adopted = Fold(pri, got) == checkpoint.Folded
				pri.Resume()
			}
		}
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

// Promote implements StandbyPolicy: the activated standby becomes the
// permanent primary after the failure persisted past the fail-stop
// threshold, and — when a spare machine is available — the policy re-arms
// there, re-protecting the subjob.
func (hp *HybridPolicy) Promote(lc *Lifecycle, _ time.Time) State {
	lc.transient(Promoted)
	lc.mu.Lock()
	old, sec := lc.primary, lc.secondary
	oldDet, oldCM, oldAckers := lc.det, lc.cm, lc.ackers
	oldStandby, oldStore := lc.standby, lc.store
	lc.primary, lc.secondary = sec, nil
	lc.ackers, lc.standby, lc.store = nil, nil, nil
	lc.mu.Unlock()

	// The old primary is presumed dead.
	depose(lc, old, oldDet, oldCM)
	// The old standby-side store refreshed (or deployed) the copy that is
	// now primary; the replacement standby gets a store of its own. Nothing
	// the old one still folds may force the new manager to re-base.
	if oldStandby != nil {
		oldStandby.SetOnChainBreak(nil)
		go oldStandby.Close()
	}
	if oldStore != nil {
		oldStore.SetOnChainBreak(nil)
		go oldStore.Close()
	}
	lc.recordPromotion(PromoteEvent{At: lc.clk.Now()})

	// The promoted copy must stop acking on processing: from here on its
	// checkpoint manager acknowledges after checkpointing, as passive
	// standby correctness requires.
	for _, a := range oldAckers {
		a.Stop()
	}

	// A new standby side on the spare machine protects the promoted
	// primary, so the subjob survives the next failure too.
	spare := lc.cfg.SpareMachine
	if spare == sec.Machine() {
		spare = nil
	}
	return hp.reprotect(lc, sec, spare)
}

// Rearm implements Rearmer: the scheduler-backed protection repair driven
// by the lifecycle's periodic EventRearm. From Protected it is a health
// check: nothing happens while the standby machine is alive. When the
// standby machine is dead (a crash the detector cannot see — the detector
// lived there) or the state is Unprotected (a spare-less promotion or
// migration), it asks the placer for a replacement host, tears the old
// standby apparatus down and re-arms onto the new machine.
func (hp *HybridPolicy) Rearm(lc *Lifecycle, at time.Time) State {
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

	if err := hp.Arm(lc); err != nil {
		return Unprotected
	}
	lc.recordRearm(RearmEvent{At: lc.clk.Now(), Host: string(target.ID())})
	return Protected
}
