package core

import (
	"math"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/queue"
	"streamha/internal/transport"
)

// Target identifies one consumer of a subjob's output stream: a downstream
// copy's (or the sink's) node and data-stream name. Active reports whether
// that consumer should currently receive published data (false for a
// suspended hybrid standby, whose subscription is an early connection).
// Part is the consumer's partition-instance index when the downstream
// stage is keyed-parallel, or -1 for an unfiltered consumer; the zero
// value is harmless for unpartitioned outputs (no router installed).
type Target struct {
	Node   transport.NodeID
	Stream string
	Active bool
	Part   int
}

// Wiring tells a lifecycle how its subjob connects to the rest of the
// job. Both sides are functions because neighboring subjobs may migrate:
// they are re-evaluated whenever the lifecycle rewires.
type Wiring struct {
	// UpstreamOutputs returns the output queues currently producing this
	// subjob's input streams (every live copy of each upstream producer,
	// including the source).
	UpstreamOutputs func() []*queue.Output
	// DownstreamTargets returns the consumer copies of this subjob's output.
	DownstreamTargets func() []Target
	// OutPartitioner, when non-nil, is the keyed-parallel routing table of
	// the downstream stage; the lifecycle installs it on the output queue of
	// every copy it creates, so replicas route identically.
	OutPartitioner *queue.Partitioner
	// InPartitioner, when non-nil, marks the protected subjob as partition
	// instance Part of its own keyed-parallel stage: new copies receive the
	// input-queue guard and upstream subscriptions filter to Part.
	InPartitioner *queue.Partitioner
	// Part is the partition-instance index served (meaningful only with
	// InPartitioner).
	Part int
}

// Options tunes the hybrid method. The zero value selects the paper's full
// design at the experiments' one-fifth timescale.
type Options struct {
	// HeartbeatInterval is the detector's ping period (default 20 ms,
	// standing in for the paper's 100 ms).
	HeartbeatInterval time.Duration
	// MissThreshold triggers switchover; the hybrid method acts on the
	// first miss (default 1).
	MissThreshold int
	// CheckpointInterval drives the primary's sweeping checkpoint manager
	// (default 10 ms, standing in for the paper's 50 ms).
	CheckpointInterval time.Duration
	// CheckpointCosts models checkpoint CPU cost.
	CheckpointCosts checkpoint.Costs
	// CheckpointRebaseEvery enables incremental checkpointing when ≥ 2: up
	// to RebaseEvery-1 delta checkpoints ship between full snapshots. 0
	// keeps the classic full-snapshot-every-sweep protocol.
	CheckpointRebaseEvery int
	// FailStopAfter promotes the standby to primary if the failure
	// persists this long after switchover; zero disables promotion.
	FailStopAfter time.Duration

	// Ablation switches (Section IV-B optimizations; all false = full
	// hybrid):
	//
	// NoPreDeploy deploys the secondary on demand at switchover instead of
	// pre-deploying it suspended; checkpoints then go to a passive store.
	NoPreDeploy bool
	// NoEarlyConnection creates upstream/downstream connections at
	// switchover instead of in advance.
	NoEarlyConnection bool
	// NoReadState skips the read-state step on rollback: the primary
	// resumes from its own (stale) state and reprocesses its backlog.
	NoReadState bool
	// DiskStore persists checkpoints through a simulated disk instead of
	// refreshing memory (only meaningful with NoPreDeploy or for ablation
	// of the in-memory refresh; adds write latency to every checkpoint).
	DiskStore bool
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 20 * time.Millisecond
	}
	if o.MissThreshold <= 0 {
		o.MissThreshold = 1
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 10 * time.Millisecond
	}
	return o
}

// neverRebase is the passive preset's CheckpointRebaseEvery: a count no
// delta chain reaches, so its manager never rebases on a count. A full goes
// out only when one is needed: the manager's first capture (at arm, and on
// every new manager after a migration or re-arm), after a chain break
// (EventChainBreak → actRebase → ForceFull), after Resume, and when the
// pending-ack window trips.
const neverRebase = math.MaxInt

// The CPU work of the deployment steps, at the experiments' one-fifth
// timescale.
const (
	// resumeCost resumes the pre-deployed copy (the paper measures resume
	// at about a quarter of a full redeployment).
	resumeCost = 5 * time.Millisecond
	// deployCost deploys a copy: up front for a pre-deployed standby, on
	// demand at switchover under NoPreDeploy and at every passive recovery
	// (standing in for the paper's ~200 ms redeployment).
	deployCost = 20 * time.Millisecond
	// connectCost establishes one connection on demand: at switchover
	// under NoEarlyConnection, and at every passive recovery.
	connectCost = 2 * time.Millisecond
)

// ErrorBudget bounds the divergence the approx standby policy may admit
// at failover. A budgeted failover promotes the standby from its last
// partial checkpoint and skips the output-queue replay entirely when the
// estimated loss fits the budget; otherwise it falls back to the exact
// hybrid replay.
type ErrorBudget struct {
	// MaxLostElements bounds how many in-flight elements a budgeted
	// failover may skip instead of replaying.
	MaxLostElements int
}

// Zero reports whether the budget admits no loss at all, in which case
// the approx policy must behave exactly like hybrid.
func (b ErrorBudget) Zero() bool { return b.MaxLostElements <= 0 }

// PassiveOptions tunes conventional passive standby. They are the Options
// fields the passive preset of the hybrid policy leaves free
// (NewPassivePolicy); the preset fixes the others.
type PassiveOptions struct {
	// HeartbeatInterval is the detector's ping period (default 20 ms).
	HeartbeatInterval time.Duration
	// MissThreshold is the consecutive misses before migration (default 3,
	// the conventional value).
	MissThreshold int
	// CheckpointInterval drives the sweeping checkpoint manager
	// (default 10 ms).
	CheckpointInterval time.Duration
	// CheckpointCosts models checkpoint CPU cost.
	CheckpointCosts checkpoint.Costs
}

// SwitchEvent records one switchover: from the detector's declaration to
// the standby running and connected.
type SwitchEvent struct {
	DetectedAt time.Time
	ReadyAt    time.Time
}

// MigrationEvent records one passive-standby recovery: detection to the
// recovered copy running and connected on the (former) secondary machine.
// It carries the same timestamps as a switchover.
type MigrationEvent = SwitchEvent

// RollbackEvent records one rollback: from the recovery declaration to the
// primary holding the adopted state (or having declined it).
type RollbackEvent struct {
	StartedAt time.Time
	DoneAt    time.Time
	// StateUnits is the size of the state read back, in element units.
	StateUnits int
	// Adopted reports whether the primary adopted the standby's state; it
	// declines when its own progress was ahead (a false-alarm switchover).
	Adopted bool
}

// PromoteEvent records a fail-stop promotion of the standby to primary.
type PromoteEvent struct {
	At time.Time
}
