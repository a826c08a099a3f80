package ha

import (
	"fmt"
	"slices"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/core"
	"streamha/internal/subjob"
)

// RescalePlacement places the instance a ScaleOut adds: the machine for
// its primary copy and, per the stage's HA mode, its standby and spare.
type RescalePlacement struct {
	Primary   string
	Secondary string
	Spare     string
}

// A ScaleOut ships syncRounds delta rounds after the full snapshot while
// the donor keeps serving, roundGap apart; more rounds shrink the final
// delta and so the cutover pause. drainTimeout bounds the wait for the
// donor's backlog to empty during cutover.
const (
	syncRounds   = 2
	roundGap     = 20 * time.Millisecond
	drainTimeout = 5 * time.Second
)

// RescaleReport describes one completed ScaleOut.
type RescaleReport struct {
	Stage       int
	NewInstance int
	// Donor is the partition-instance index that gave up partitions.
	Donor int
	// Moved lists the logical partitions reassigned to the new instance.
	Moved []int
	// FullBytes and DeltaBytes are the encoded sizes shipped during state
	// sync (the full snapshot round, then every delta round including the
	// final cutover delta).
	FullBytes  int
	DeltaBytes int
	// Rounds counts delta rounds shipped, including the final one.
	Rounds int
	// SyncDuration spans the whole ScaleOut; CutoverPause is the window in
	// which the donor was actually paused (the only service interruption).
	SyncDuration time.Duration
	CutoverPause time.Duration
}

// ScaleOut grows a keyed-parallel stage from n to n+1 instances while the
// job keeps serving. Only the last stage can grow live — an instance added
// mid-chain would need every downstream copy's input re-specced, which is
// out of scope — and the stage must not run active standby (the twin
// processes the same feed concurrently, so pausing just the primary for
// state sync would fork the pair).
//
// Protocol: the new instance is deployed suspended with early (inactive)
// upstream connections and an active sink subscription for its own output
// stream. The donor — the instance owning the most partitions — then ships
// a full snapshot and a chain of delta checkpoints while it keeps serving;
// its checkpoint manager is paused so the migration owns the delta
// baseline. Cutover deactivates the donor's feed, drains its backlog,
// ships the final (empty-backlog) delta under pause, flips the shared
// routing table, purges moved elements from the donor's buffer, resumes
// the new instance and reactivates both feeds. Upstream replay plus the
// adopted consumed positions make the handoff exactly-once: the new
// instance's input dedups everything the donor already consumed, and its
// partition guard drops everything the donor still owns. The cutover is
// recorded on the donor's lifecycle as a migration event.
func (p *Pipeline) ScaleOut(stage int, pl RescalePlacement) (*RescaleReport, error) {
	j := p.j
	clk := j.cl.Clock()
	started := clk.Now()

	stages := len(j.nodes) - 2
	if stage != stages-1 {
		return nil, fmt.Errorf("ha: ScaleOut: only the last stage can grow live (got stage %d of %d)", stage, stages)
	}
	n := p.stage(stage)
	if !n.def.partitioned() {
		return nil, fmt.Errorf("ha: ScaleOut: stage %d is not keyed-parallel", stage)
	}
	if n.def.Mode == ModeActive {
		return nil, fmt.Errorf("ha: ScaleOut: active-standby stages cannot rescale live")
	}
	split := n.split
	instances := j.groupsOf(n)
	k := len(instances)
	if split.Instances() != k {
		return nil, fmt.Errorf("ha: ScaleOut: routing table has %d instances, pipeline has %d", split.Instances(), k)
	}

	// Donor: the instance owning the most partitions; it gives up half.
	donorIdx, donorOwned := 0, split.OwnedBy(0)
	for i := 1; i < k; i++ {
		if owned := split.OwnedBy(i); len(owned) > len(donorOwned) {
			donorIdx, donorOwned = i, owned
		}
	}
	if len(donorOwned) < 2 {
		return nil, fmt.Errorf("ha: ScaleOut: donor instance %d owns %d partitions; nothing to move", donorIdx, len(donorOwned))
	}
	moved := append([]int(nil), donorOwned[:len(donorOwned)/2]...)
	donorGroup := instances[donorIdx]
	donor := donorGroup.HA.PrimaryRuntime()

	// Deploy the new instance as a full HA group of the stage's mode,
	// suspended, with its partition guard installed before any element can
	// reach it. Every machine resolves before anything deploys, so a bad name
	// leaves the stage, its links and the routing table as they were. Its
	// output stream is new: the sink learns it first, then the instance
	// subscribes the sink actively (the output queue is empty, so the active
	// subscription carries nothing yet).
	g, err := j.buildGroup(n, k, pl, true)
	if err != nil {
		return nil, err
	}
	spec, rt, sink := g.Spec, g.HA.PrimaryRuntime(), p.Sink()
	j.mu.Lock()
	n.streams = append(n.streams, spec.OutStream)
	j.mu.Unlock()
	sink.AddInput(spec.OutStream, spec.ID)
	rt.Out().SubscribePart(sink.Node(), subjob.DataStream(sink.ID(), spec.OutStream), true, -1)

	// Early inactive upstream connections, filtered to the new instance's
	// (currently empty) partition set.
	ups := j.upstreamOf(n)
	for _, up := range ups {
		up.SubscribePart(rt.Node(), subjob.DataStream(spec.ID, up.StreamID), false, k)
	}
	// abandon undoes the deployment when ScaleOut fails before the new
	// instance joins the stage: upstream drops its subscriptions, the
	// instance stops and hands its slots back, and the sink and the link
	// forget its output stream.
	abandon := func() {
		for _, up := range ups {
			up.Unsubscribe(rt.Node())
		}
		stopGroup(g)
		sink.RemoveInput(spec.OutStream)
		j.mu.Lock()
		n.streams = slices.DeleteFunc(n.streams, func(s string) bool { return s == spec.OutStream })
		j.mu.Unlock()
	}

	// The migration owns the donor's delta baseline: an interleaved manager
	// capture would reset per-PE change tracking mid-chain.
	if cm := donorGroup.HA.Checkpoint(); cm != nil {
		cm.Pause()
		defer cm.Resume()
	}

	rep := &RescaleReport{Stage: stage, NewInstance: k, Donor: donorIdx, Moved: moved}

	// syncRound ships the paused donor's state, in full or what changed since
	// the last round, addressed to the new instance, encoded, and folded
	// there. No round carries the donor's output queue.
	syncRound := func(full bool) error {
		var d *subjob.Delta
		if full {
			d = donor.CaptureFull().AsDelta()
		} else {
			// Without an output section a delta capture cannot fail.
			d, _ = donor.CaptureDelta(subjob.DeltaOptions{OnlyPE: -1})
		}
		d.SubjobID = spec.ID
		payload, err := d.Encode()
		if err != nil {
			return fmt.Errorf("ha: ScaleOut: encode sync round: %w", err)
		}
		if out := core.Fold(rt, payload); out != checkpoint.Folded {
			return fmt.Errorf("ha: ScaleOut: new instance did not fold sync round (outcome %d)", out)
		}
		if full {
			rep.FullBytes = len(payload)
		} else {
			rep.DeltaBytes += len(payload)
			rep.Rounds++
		}
		return nil
	}

	// A full round, then chained delta rounds: the donor keeps processing
	// between captures, so each round ships only what changed and the final
	// gap stays small.
	for i := 0; i <= syncRounds; i++ {
		if i > 0 {
			clk.Sleep(roundGap)
		}
		donor.WithPaused(func() { err = syncRound(i == 0) })
		if err != nil {
			abandon()
			return nil, err
		}
	}

	// Cutover. Stop the donor's feed and let it finish what it holds, so
	// the final delta carries state only — no in-flight elements exist whose
	// outputs could be emitted twice.
	cutStart := clk.Now()
	for _, up := range ups {
		up.Activate(donor.Node(), false)
	}
	reopen := func() {
		for _, up := range ups {
			up.Activate(donor.Node(), true)
		}
	}
	deadline := clk.Now().Add(drainTimeout)
	var cutErr error
	for settled := false; !settled; {
		for donor.Backlog() > 0 {
			if clk.Now().After(deadline) {
				reopen()
				abandon()
				return nil, fmt.Errorf("ha: ScaleOut: donor backlog did not drain within %v", drainTimeout)
			}
			clk.Sleep(500 * time.Microsecond)
		}
		donor.WithPaused(func() {
			// Re-check under the pause: a batch in flight when the backlog
			// last read zero may have landed since, and a PE finishing it
			// while parking would leave its outputs in a pipe. A delta
			// shipped with a non-empty pipe is processed by both sides —
			// the new instance after Resume and the donor after unpause — so
			// retry the drain until the quiescent backlog really is zero.
			if donor.Backlog() > 0 {
				return
			}
			settled = true
			if cutErr = syncRound(false); cutErr != nil {
				return
			}
			// Flip ownership while both sides are quiescent, then purge moved
			// elements the donor had buffered: from here on the guard routes
			// them to the new instance via upstream replay.
			if cutErr = split.Move(moved, k); cutErr != nil {
				return
			}
			donor.In().Repartition()
		})
		if cutErr != nil {
			reopen()
			abandon()
			return nil, cutErr
		}
	}

	// Serve: resume the new instance, then open both feeds. Activation
	// replays everything unacknowledged through each subscription's filter,
	// and the folded consumed positions dedup what the donor already
	// processed.
	rt.Resume()
	for _, up := range ups {
		up.Activate(rt.Node(), true)
	}
	reopen()
	cutEnd := clk.Now()
	rep.CutoverPause = cutEnd.Sub(cutStart)

	// Protect the new instance: its lifecycle joins the stage and starts.
	j.mu.Lock()
	n.groups = append(n.groups, g)
	reg := j.reg
	j.mu.Unlock()
	if err := g.HA.Start(); err != nil {
		return nil, fmt.Errorf("ha: ScaleOut: start lifecycle: %w", err)
	}
	if reg != nil {
		registerGroupMetrics(reg, g)
	}

	donorGroup.HA.NoteMigration(core.MigrationEvent{DetectedAt: cutStart, ReadyAt: cutEnd})
	rep.SyncDuration = clk.Now().Sub(started)
	return rep, nil
}
