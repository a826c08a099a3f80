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
	"streamha/internal/transport"
)

// StandbyStore applies checkpoint messages to a pre-deployed suspended
// standby copy, refreshing its state directly in memory (the paper's
// storeJobState(jobState) interface), and confirms storage back to the
// checkpoint manager. While the standby is active (during a transient
// failure) incoming checkpoints are acknowledged but not applied: the live
// state supersedes them, and trimming remains gated by the standby's own
// acknowledgments.
//
// Incremental checkpoints fold into the standby the same way they fold
// into a Store: a delta is applied only when it extends the sequence chain
// of the state the standby currently holds, and a delta that does not is
// dropped without acknowledgment so upstream keeps the data. Any break —
// an active period, a retarget, a failed restore — invalidates the chain
// until the next full snapshot re-bases it.
type StandbyStore struct {
	mu      sync.Mutex
	rt      *subjob.Runtime
	catalog *checkpoint.Catalog
	// ckptStream and ackStream are the subjob's checkpoint and store-ack
	// stream names; every copy of the subjob shares them.
	ckptStream string
	ackStream  string

	applied      int
	skipped      int
	deltaDrops   int
	chain        uint64
	chainOK      bool
	onChainBreak func()

	// Bounded-error (approx) bookkeeping. Partial frames are unchained:
	// partialSeq only dedups stale/duplicate frames, and lastRefresh is
	// the clock reading of the newest applied refresh (full or partial) —
	// the approx policy's staleness measure at failover. coldBytes is the
	// cold remainder the last applied partial did not cover.
	partialSeq     uint64
	partialApplied int
	partialSkipped int
	lastRefresh    time.Time
	coldBytes      uint64

	// dec and pos belong to the run goroutine (Close's drain included):
	// apply decodes every checkpoint into dec's values and reads the
	// standby's positions into pos. A fold copies whatever it keeps, so
	// neither outlives the apply that filled it.
	dec subjob.Decoder
	pos map[string]uint64

	work chan storeReq
	stop chan struct{}
	done chan struct{}
}

type storeReq struct {
	from transport.NodeID
	msg  transport.Message
}

// NewStandbyStore starts a store refreshing rt, which must be the
// suspended standby copy of its subjob.
func NewStandbyStore(rt *subjob.Runtime) *StandbyStore {
	return NewStandbyStoreWith(rt, nil)
}

// NewStandbyStoreWith starts a store refreshing rt that also persists
// checkpoints through catalog (when non-nil) before acknowledging them,
// so the in-memory refresh leaves a durable trail a cold restart can
// restore from. Full snapshots are persisted whenever they decode — even
// ones skipped because the standby is active or ahead, since a full is a
// valid restore base regardless of the standby's live state. Deltas are
// persisted only when applied: an applied delta extends the in-memory
// chain, whose predecessor was persisted by the same rule, so the
// cataloged chain always mirrors the in-memory one.
func NewStandbyStoreWith(rt *subjob.Runtime, catalog *checkpoint.Catalog) *StandbyStore {
	s := &StandbyStore{
		rt:         rt,
		catalog:    catalog,
		ckptStream: subjob.CkptStream(rt.Spec().ID),
		ackStream:  subjob.CkptAckStream(rt.Spec().ID),
		work:       make(chan storeReq, 128),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	rt.Machine().RegisterStream(s.ckptStream, s.enqueue)
	go s.run()
	return s
}

// enqueue is the checkpoint-stream handler: it queues the message for the
// store goroutine.
func (s *StandbyStore) enqueue(from transport.NodeID, msg transport.Message) {
	select {
	case s.work <- storeReq{from: from, msg: msg}:
	case <-s.stop:
	}
}

// Retarget points the store at a different standby runtime (after a
// fail-stop promotion instantiates a new secondary).
func (s *StandbyStore) Retarget(rt *subjob.Runtime) {
	s.mu.Lock()
	old := s.rt
	s.rt = rt
	s.chainOK = false
	s.mu.Unlock()
	if old.Machine() != rt.Machine() {
		old.Machine().UnregisterStream(s.ckptStream)
		rt.Machine().RegisterStream(s.ckptStream, s.enqueue)
	}
}

func (s *StandbyStore) runtime() *subjob.Runtime {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt
}

func (s *StandbyStore) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			// Shutdown fence: Close unregisters the handler before closing
			// stop, so the work queue no longer grows; applying what is
			// already queued keeps the acknowledgments the senders are
			// waiting on from silently vanishing.
			for {
				select {
				case req := <-s.work:
					s.apply(req)
				default:
					return
				}
			}
		case req := <-s.work:
			s.apply(req)
		}
	}
}

func (s *StandbyStore) apply(req storeReq) {
	if subjob.IsPartial(req.msg.State) {
		s.applyPartial(req)
		return
	}
	snap, delta, err := s.dec.Decode(req.msg.State)
	if err != nil {
		return
	}
	rt := s.runtime()

	s.mu.Lock()
	chain, chainOK := s.chain, s.chainOK
	s.mu.Unlock()
	if delta != nil && (!chainOK || delta.PrevSeq != chain) {
		// The delta does not extend the state the standby holds (chain broken
		// by an active period or a lost checkpoint): dropping it without an
		// acknowledgment keeps the data recoverable upstream until the
		// manager re-bases with a full snapshot.
		s.mu.Lock()
		s.deltaDrops++
		onChainBreak := s.onChainBreak
		s.mu.Unlock()
		if onChainBreak != nil {
			onChainBreak()
		}
		return
	}

	var ckptPos map[string]uint64
	if delta != nil {
		ckptPos = delta.Consumed
	} else {
		ckptPos = snap.Consumed
	}

	applied := false
	suspended := false
	rt.Exclusive(func() {
		suspended = rt.Suspended()
		if !suspended {
			return
		}
		s.pos = rt.ConsumedPositionsInto(s.pos)
		if !positionsCover(ckptPos, s.pos) {
			// The checkpoint was captured before the standby's current state
			// (a capture in flight across a rollback, which re-suspends the
			// standby at its live — newer — positions). Applying it would
			// rewind consumed positions and the output sequence while the
			// input queue's dedup floor stays put, so the next activation
			// would drop the replayed gap as duplicates and permanently
			// shift the output sequence mapping. The standby's state covers
			// everything the checkpoint does, so skip it (acknowledged: the
			// skip leaves applied=false with suspended=true below).
			return
		}
		if delta != nil {
			applied = rt.ApplyDelta(delta) == nil
		} else {
			applied = rt.Restore(snap) == nil
		}
	})
	s.mu.Lock()
	if applied {
		s.applied++
		s.chain = req.msg.Seq
		s.chainOK = true
		s.lastRefresh = rt.Machine().Clock().Now()
	} else {
		s.skipped++
		// A live standby's state supersedes checkpoints, a stale checkpoint
		// is behind it, and a failed apply leaves it indeterminate; in every
		// case the chain must restart from the next full snapshot.
		s.chainOK = false
	}
	ack := applied || suspended || delta == nil
	s.mu.Unlock()
	if !ack {
		return
	}
	// Persist-before-ack. Fulls are cataloged whenever they decode (any
	// full is a valid cold-restart base); deltas only when applied, which
	// guarantees their cataloged predecessor exists. A failed persist
	// withholds the acknowledgment — upstream must keep the data the
	// catalog cannot recover — and invalidates the chain so the manager
	// re-bases with a full snapshot.
	if s.catalog != nil && (delta == nil || applied) {
		units := 0
		if delta != nil {
			units = delta.ElementUnits()
		} else {
			units = snap.ElementUnits()
		}
		if err := s.catalog.Put(rt.Spec().ID, req.msg.Seq, units, req.msg.State); err != nil {
			s.mu.Lock()
			s.chainOK = false
			onChainBreak := s.onChainBreak
			s.mu.Unlock()
			if onChainBreak != nil {
				onChainBreak()
			}
			return
		}
	}
	rt.Machine().Send(req.from, transport.Message{
		Kind:    transport.KindControl,
		Stream:  s.ackStream,
		Command: "ckpt-stored",
		Seq:     req.msg.Seq,
	})
}

// applyPartial handles an unchained bounded-error frame. Partials patch
// only the hot byte ranges of the standby's state, so a frame that cannot
// be applied — the standby is active, ahead, or the patch misfits — is
// simply skipped: the cold remainder stays stale, which is exactly the
// divergence the approx policy's error budget accounts for. Every frame
// that decodes is acknowledged, letting upstream trim on the partial
// cadence (the source of approx's retention savings), and none are
// persisted to the catalog: a cold restart restores from the last full
// snapshot, approximate by design.
func (s *StandbyStore) applyPartial(req storeReq) {
	part, err := subjob.DecodePartial(req.msg.State)
	if err != nil {
		return
	}
	rt := s.runtime()

	s.mu.Lock()
	stale := s.partialApplied > 0 && req.msg.Seq <= s.partialSeq
	s.mu.Unlock()

	applied := false
	if !stale {
		rt.Exclusive(func() {
			if !rt.Suspended() {
				return
			}
			s.pos = rt.ConsumedPositionsInto(s.pos)
			if !positionsCover(part.Consumed, s.pos) {
				return
			}
			applied = rt.ApplyPartial(part) == nil
		})
	}

	s.mu.Lock()
	if applied {
		s.partialApplied++
		s.partialSeq = req.msg.Seq
		s.lastRefresh = rt.Machine().Clock().Now()
		s.coldBytes = part.ColdBytes
		// A partial mutates state out of band of the delta chain: any delta
		// captured against the pre-partial base no longer folds cleanly.
		s.chainOK = false
	} else {
		s.partialSkipped++
	}
	s.mu.Unlock()

	rt.Machine().Send(req.from, transport.Message{
		Kind:    transport.KindControl,
		Stream:  s.ackStream,
		Command: "ckpt-stored",
		Seq:     req.msg.Seq,
	})
}

// PartialStats returns how many unchained partial frames refreshed the
// standby, how many were skipped, and the cold bytes the last applied
// frame did not cover.
func (s *StandbyStore) PartialStats() (applied, skipped int, coldBytes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partialApplied, s.partialSkipped, s.coldBytes
}

// LastRefresh returns when a checkpoint (full, delta or partial) last
// refreshed the standby's in-memory state; the zero time if none has.
func (s *StandbyStore) LastRefresh() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRefresh
}

// SetOnChainBreak installs a callback invoked (from the store goroutine)
// whenever a delta is dropped because it did not extend the standby's
// chain; the lifecycle uses it to force an immediate rebase.
func (s *StandbyStore) SetOnChainBreak(fn func()) {
	s.mu.Lock()
	s.onChainBreak = fn
	s.mu.Unlock()
}

// Applied returns how many checkpoints refreshed the standby in memory.
func (s *StandbyStore) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Skipped returns how many checkpoints arrived while the standby was
// active and were acknowledged without being applied.
func (s *StandbyStore) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// DeltaDrops returns how many delta checkpoints were dropped,
// unacknowledged, because they did not extend the standby's state chain.
func (s *StandbyStore) DeltaDrops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltaDrops
}

// Persisted returns how many checkpoints this store made durable through
// its catalog (always 0 without one).
func (s *StandbyStore) Persisted() int {
	if s.catalog == nil {
		return 0
	}
	return s.catalog.Counters(s.runtime().Spec().ID).Persisted
}

// Close stops the store. The handler is unregistered before stop closes
// so run()'s shutdown drain observes the final backlog; the reverse
// order could accept a checkpoint into the queue after the drain and
// drop its acknowledgment.
func (s *StandbyStore) Close() {
	select {
	case <-s.stop:
		return
	default:
	}
	rt := s.runtime()
	rt.Machine().UnregisterStream(s.ckptStream)
	close(s.stop)
	<-s.done
}
