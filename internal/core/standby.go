// Package core implements the paper's primary contribution: the hybrid
// high-availability method (Section IV). A protected subjob runs as
// passive standby in normal conditions — sweeping checkpoints refresh a
// pre-deployed, suspended secondary copy directly in memory — and switches
// to active standby on the first missed heartbeat: the secondary's
// processing loops are resumed (a flag flip), its early-created upstream
// connections are activated, and unacknowledged data is retransmitted.
// When the primary becomes responsive again the system rolls back: the
// primary reads the freshest state from the secondary ("read state on
// rollback") and the secondary re-suspends. If the failure persists, the
// secondary is promoted to primary and a new standby is instantiated.
package core

import (
	"sync"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/subjob"
)

// StandbyStore is the checkpoint store of a pre-deployed standby: a
// checkpoint.Store whose target is the suspended copy itself, refreshed
// directly in memory (the paper's storeJobState(jobState) interface).
// While the copy is active (during a transient failure) checkpoints are
// not applied: the live state supersedes them.
type StandbyStore struct {
	*checkpoint.Store
	sb *standby
}

// newStandbyStore starts a store refreshing rt, which must be the
// suspended standby copy of its subjob.
func newStandbyStore(rt *subjob.Runtime) *StandbyStore {
	sb := &standby{rt: rt}
	return &StandbyStore{
		Store: checkpoint.NewStore(rt.Machine(), rt.Spec().ID, sb, checkpoint.StoreOptions{}),
		sb:    sb,
	}
}

// Applied returns how many checkpoints (full or delta) refreshed the
// standby in memory.
func (s *StandbyStore) Applied() int {
	st := s.Stats()
	return st.Fulls + st.DeltaFolds
}

// DeltaDrops returns how many delta checkpoints were dropped,
// unacknowledged, because they did not extend the standby's state chain.
func (s *StandbyStore) DeltaDrops() int { return s.Stats().DeltaDrops }

// PartialStats returns how many unchained partial frames refreshed the
// standby, how many were skipped, and the cold bytes the last applied
// frame did not cover.
func (s *StandbyStore) PartialStats() (applied, skipped int, coldBytes uint64) {
	s.sb.mu.Lock()
	defer s.sb.mu.Unlock()
	return s.sb.partialApplied, s.sb.partialSkipped, s.sb.coldBytes
}

// lastRefresh returns when a checkpoint (full, delta or partial) last
// refreshed the standby's in-memory state; the zero time if none has.
func (s *StandbyStore) lastRefresh() time.Time {
	s.sb.mu.Lock()
	defer s.sb.mu.Unlock()
	return s.sb.lastRefresh
}

// Fold folds payload, an encoded full or delta checkpoint, into rt, a
// suspended copy, through the standby target's fold. It is how state moves
// into a copy from another: rollback read-state, re-arm seeding and live
// rescale all end here. A payload that does not decode is Failed.
func Fold(rt *subjob.Runtime, payload []byte) checkpoint.Outcome {
	sb := &standby{rt: rt}
	snap, d, err := sb.Decode(payload)
	if err != nil {
		return checkpoint.Failed
	}
	return sb.Apply(snap, d)
}

// standby is the checkpoint.Target of a pre-deployed hybrid or approx
// standby: the suspended copy.
type standby struct {
	rt *subjob.Runtime
	// dec and pos belong to the store's fold: Decode fills dec's values and
	// refresh reads the copy's positions into pos. A fold copies whatever
	// it keeps (DESIGN §11, rule 5), so neither outlives the fold that
	// filled it.
	dec subjob.Decoder
	pos map[string]uint64

	// Bounded-error (approx) bookkeeping. Partial frames are unchained:
	// partialSeq only dedups stale/duplicate frames, and lastRefresh is
	// the clock reading of the newest applied refresh (full, delta or
	// partial) — the approx policy's staleness measure at failover.
	// coldBytes is the cold remainder the last applied partial did not
	// cover.
	mu             sync.Mutex
	lastRefresh    time.Time
	partialSeq     uint64
	partialApplied int
	partialSkipped int
	coldBytes      uint64
}

// Decode implements checkpoint.Target with the standby's own decoder, so
// a warmed fold allocates nothing.
func (sb *standby) Decode(payload []byte) (*subjob.Snapshot, *subjob.Delta, error) {
	return sb.dec.Decode(payload)
}

// Apply implements checkpoint.Target: Restore a full, ApplyDelta a delta.
func (sb *standby) Apply(snap *subjob.Snapshot, d *subjob.Delta) checkpoint.Outcome {
	if d != nil {
		return sb.refresh(d.Consumed, func() error { return sb.rt.ApplyDelta(d) })
	}
	return sb.refresh(snap.Consumed, func() error { return sb.rt.Restore(snap) })
}

// ApplyPartial implements checkpoint.Target. A partial patches only the
// hot byte ranges of the state, so a frame that cannot be applied — the
// standby is active or ahead, the frame is stale, or the patch misfits —
// is simply skipped: the cold remainder stays stale, which is exactly the
// divergence the approx policy's error budget accounts for. Every frame
// that decodes is acknowledged, letting upstream trim on the partial
// cadence, and none are persisted: a cold restart restores from the last
// full snapshot, approximate by design.
func (sb *standby) ApplyPartial(seq uint64, payload []byte) (bool, error) {
	part, err := subjob.DecodePartial(payload)
	if err != nil {
		return false, err
	}
	sb.mu.Lock()
	stale := sb.partialApplied > 0 && seq <= sb.partialSeq
	sb.mu.Unlock()
	applied := !stale &&
		sb.refresh(part.Consumed, func() error { return sb.rt.ApplyPartial(part) }) == checkpoint.Folded
	sb.mu.Lock()
	if applied {
		sb.partialApplied++
		sb.partialSeq = seq
		sb.coldBytes = part.ColdBytes
	} else {
		sb.partialSkipped++
	}
	sb.mu.Unlock()
	return applied, nil
}

// refresh runs apply on the copy under its operation lock, so a refresh
// never interleaves with a rollback's read-state snapshot, unless the
// copy is live or its positions are already past consumed.
func (sb *standby) refresh(consumed map[string]uint64, apply func() error) checkpoint.Outcome {
	out := checkpoint.Superseded
	sb.rt.Exclusive(func() {
		if !sb.rt.Suspended() {
			return
		}
		sb.pos = sb.rt.ConsumedPositionsInto(sb.pos)
		if !positionsCover(consumed, sb.pos) {
			// The checkpoint was captured before the standby's current state
			// (a capture in flight across a rollback, which re-suspends the
			// standby at its live — newer — positions). Applying it would
			// rewind consumed positions and the output sequence while the
			// input queue's dedup floor stays put, so the next activation
			// would drop the replayed gap as duplicates and permanently
			// shift the output sequence mapping.
			out = checkpoint.Covered
			return
		}
		out = checkpoint.Folded
		if apply() != nil {
			out = checkpoint.Failed
		}
	})
	if out == checkpoint.Folded {
		now := sb.rt.Machine().Clock().Now()
		sb.mu.Lock()
		sb.lastRefresh = now
		sb.mu.Unlock()
	}
	return out
}

// positionsCover reports whether the positions of the state being folded
// are at or beyond the receiving copy's on every stream. Besides guarding
// a standby against stale checkpoints, it keeps a rollback after a false
// alarm from regressing a primary that was actually ahead.
func positionsCover(from, into map[string]uint64) bool {
	for s, v := range into {
		if from[s] < v {
			return false
		}
	}
	return true
}
