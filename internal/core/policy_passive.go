package core

import (
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/subjob"
)

// PassivePolicy is conventional passive standby: the primary checkpoints
// to a store on the secondary machine, and after MissThreshold (three, by
// convention) heartbeat misses a recovery copy is deployed there on
// demand. There is no rollback: after a migration the former secondary
// machine is the new primary's home and the former primary machine becomes
// the new secondary — so under transient failures the subjob keeps
// experiencing spikes on whichever machine it lands on, as the paper
// observes in Figure 4. The lifecycle re-arms after every migration, so
// repeated failures keep being survived while both machines stay alive.
type PassivePolicy struct {
	opts PassiveOptions
}

// NewPassivePolicy creates the passive-standby policy with o.
func NewPassivePolicy(o PassiveOptions) *PassivePolicy {
	return &PassivePolicy{opts: o.withDefaults()}
}

// Options returns the policy's resolved options.
func (pp *PassivePolicy) Options() PassiveOptions { return pp.opts }

// Mode implements StandbyPolicy.
func (pp *PassivePolicy) Mode() string { return "passive" }

// InitialState implements StandbyPolicy.
func (pp *PassivePolicy) InitialState() State { return Protected }

// PreDeploy implements StandbyPolicy: passive standby deploys on demand.
func (pp *PassivePolicy) PreDeploy() (bool, bool) { return false, false }

// NeedsStandbyMachine implements StandbyPolicy.
func (pp *PassivePolicy) NeedsStandbyMachine() bool { return true }

// PromoteAfter implements StandbyPolicy: a migration never enters
// SwitchedOver, so no fail-stop timer is armed.
func (pp *PassivePolicy) PromoteAfter() time.Duration { return 0 }

// Arm implements StandbyPolicy.
func (pp *PassivePolicy) Arm(lc *Lifecycle) error {
	pp.arm(lc)
	return nil
}

// arm (re)creates the store, checkpoint manager and detector for the
// current primary/standby pair.
func (pp *PassivePolicy) arm(lc *Lifecycle) {
	lc.mu.Lock()
	active, standbyM := lc.primary, lc.secondaryM
	lc.mu.Unlock()

	store := checkpoint.NewStore(standbyM, lc.cfg.Spec.ID, &checkpoint.Image{},
		checkpoint.StoreOptions{Catalog: pp.opts.Catalog})
	cm := checkpoint.NewSweeping(checkpoint.Config{
		Runtime:        active,
		Clock:          lc.clk,
		Interval:       pp.opts.CheckpointInterval,
		StoreNode:      standbyM.ID(),
		Costs:          pp.opts.CheckpointCosts,
		RebaseEvery:    pp.opts.CheckpointRebaseEvery,
		RebaseAdaptive: pp.opts.CheckpointRebaseAdaptive,
		SeqBase:        lc.seqBase(),
	})
	lc.mu.Lock()
	lc.store = store
	lc.cm = cm
	lc.mu.Unlock()
	cm.Start()
	lc.watchChainBreaks()
	lc.startDetector(standbyM, active.Machine().ID(),
		lc.cfg.Spec.ID+"/"+string(standbyM.ID()),
		pp.opts.HeartbeatInterval, pp.opts.MissThreshold, 1)
}

// Failover implements StandbyPolicy: the passive-standby migration.
// Deploy a copy from the last checkpoint on the secondary machine,
// reconnect it upstream and downstream (retransmitting unacknowledged
// data), then swap roles so the former primary machine becomes the new
// secondary and re-arm.
func (pp *PassivePolicy) Failover(lc *Lifecycle, detectedAt time.Time) State {
	lc.mu.Lock()
	old := lc.primary
	target := lc.secondaryM
	store := lc.store
	oldCM := lc.cm
	oldDet := lc.det
	lc.mu.Unlock()

	if target.Crashed() {
		// No live statically named machine to recover on. With a placer the
		// scheduler supplies a replacement host; the checkpoints died with
		// the store machine, so the copy restarts empty and relies on the
		// upstream replay. Without one, selection of an alternative
		// secondary is outside the paper's scope.
		if lc.cfg.Placer == nil {
			return Unprotected
		}
		repl := lc.cfg.Placer.PlacePrimary(lc.cfg.Spec.ID, old.Machine())
		if repl == nil {
			return Unprotected
		}
		target = repl
		store = nil
	}
	lc.transient(Migrating)

	// Job redeployment: the dominant non-detection cost of PS recovery.
	target.CPU().Execute(pp.opts.DeployCost)
	rt, err := subjob.New(lc.cfg.Spec, target, false)
	if err != nil {
		return Unprotected
	}
	lc.applyPartitioning(rt)
	if store != nil {
		if snap, ok := store.Latest(); ok {
			if err := rt.Restore(snap); err != nil {
				return Unprotected
			}
		}
	}
	rt.Start()

	// Connection establishment, on the critical path for PS.
	ups := lc.cfg.Wiring.UpstreamOutputs()
	downs := lc.cfg.Wiring.DownstreamTargets()
	target.CPU().Execute(pp.opts.ConnectCost * time.Duration(len(ups)+len(downs)))
	for _, up := range ups {
		// Rebinding the subscription retransmits everything unacknowledged,
		// which the recovered copy reprocesses.
		up.ResetSubscriber(old.Node(), rt.Node(), subjob.DataStream(lc.cfg.Spec.ID, up.StreamID))
	}
	for _, t := range downs {
		rt.Out().SubscribePart(t.Node, t.Stream, t.Active, t.Part)
	}
	rt.Out().RetransmitAll()

	readyAt := lc.clk.Now()

	// Tear down the old stack without blocking (its machine may be
	// unresponsive); the old copy may limp along for a while, and the
	// downstream deduplicates whatever it still emits.
	go func() {
		if oldDet != nil {
			oldDet.Stop()
		}
		if oldCM != nil {
			oldCM.Stop()
		}
		old.Stop()
	}()
	if store != nil {
		store.Close()
	}

	lc.mu.Lock()
	lc.primary = rt
	lc.secondaryM = old.Machine()
	lc.mu.Unlock()
	lc.recordMigration(MigrationEvent{DetectedAt: detectedAt, ReadyAt: readyAt})

	// Re-protect: new store on the former primary machine, new checkpoint
	// manager on the new primary, new detector monitoring it. A fail-stop
	// crash of the former primary leaves no live machine to host the store —
	// with a placer the scheduler supplies one; without, the subjob keeps
	// running unprotected rather than arming apparatus on a dead machine.
	if placer := lc.cfg.Placer; placer != nil {
		placer.NotePrimary(lc.cfg.Spec.ID, rt.Machine())
	}
	if old.Machine().Crashed() {
		if lc.cfg.Placer == nil {
			return Unprotected
		}
		repl := lc.cfg.Placer.PlaceStandby(lc.cfg.Spec.ID, rt.Machine())
		if repl == nil {
			return Unprotected
		}
		lc.mu.Lock()
		lc.secondaryM = repl
		lc.mu.Unlock()
		lc.recordRearm(RearmEvent{At: lc.clk.Now(), Host: string(repl.ID())})
	}
	pp.arm(lc)
	return Protected
}

// Rearm implements Rearmer: replace a dead store machine (from Protected —
// a standby-machine crash is invisible to the detector, which lived there)
// or acquire one where none remains (from Unprotected after a correlated
// failure), tearing down the old apparatus and re-arming.
func (pp *PassivePolicy) Rearm(lc *Lifecycle, at time.Time) State {
	cur := lc.State()
	pri := lc.PrimaryRuntime()
	if pri.Machine().Crashed() {
		return cur
	}
	secM := lc.StandbyMachine()
	if cur == Protected && secM != nil && !secM.Crashed() {
		return cur
	}
	target := lc.cfg.Placer.PlaceStandby(lc.cfg.Spec.ID, pri.Machine())
	if target == nil {
		return cur
	}

	lc.mu.Lock()
	oldDet, oldCM, oldStore := lc.det, lc.cm, lc.store
	lc.det, lc.cm, lc.store = nil, nil, nil
	lc.secondaryM = target
	lc.mu.Unlock()
	// The old manager lives on the live primary, the runtime its successor
	// is about to capture from: stop it first, so the two never interleave
	// captures there. The detector and store lived on the machine that may
	// be dead; their teardown must not block the event loop.
	if oldCM != nil {
		oldCM.Stop()
	}
	go func() {
		if oldDet != nil {
			oldDet.Stop()
		}
		if oldStore != nil {
			oldStore.Close()
		}
	}()

	pp.arm(lc)
	lc.recordRearm(RearmEvent{At: lc.clk.Now(), Host: string(target.ID())})
	return Protected
}

// Restore implements StandbyPolicy; never selected by the table (passive
// standby does not roll back).
func (pp *PassivePolicy) Restore(lc *Lifecycle, _ time.Time) State { return lc.State() }

// Promote implements StandbyPolicy; never selected by the table.
func (pp *PassivePolicy) Promote(lc *Lifecycle, _ time.Time) State { return lc.State() }
