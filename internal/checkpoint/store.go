package checkpoint

import (
	"errors"
	"sync"
	"time"

	"streamha/internal/machine"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// StoreBackend selects where a Store keeps checkpoint state.
type StoreBackend int

const (
	// InMemory refreshes the state directly in memory — the hybrid method's
	// choice, avoiding disk I/O on the critical path.
	InMemory StoreBackend = iota
	// SimulatedDisk pads every store operation with DefaultDiskLatency,
	// modeling a conventional persistent store.
	SimulatedDisk
)

// DefaultDiskLatency approximates one synchronous write to spinning disk
// at the experiments' one-fifth timescale.
const DefaultDiskLatency = 800 * time.Microsecond

// Outcome is what a Target made of one checkpoint a Store handed it.
type Outcome int

const (
	// Folded: the target now holds the checkpoint's state.
	Folded Outcome = iota
	// Covered: the target already holds newer state than the checkpoint (a
	// standby re-suspended at its live positions by a rollback). The
	// checkpoint is acknowledged without a fold.
	Covered
	// Superseded: the target runs live (an activated standby). A full
	// checkpoint is acknowledged without a fold; a delta is not.
	Superseded
	// Failed: the fold failed and may have left the target part-way. The
	// checkpoint is dropped without an acknowledgment.
	Failed
)

// Target is the state a Store folds a subjob's checkpoints into: an Image
// a recovery copy is deployed from, or a pre-deployed suspended standby
// refreshed in memory. The Store calls it from one goroutine, one
// checkpoint at a time. A target reads nothing of a payload once it has
// folded it: after the Store acknowledges a checkpoint, its sender reuses
// the payload for a later one (DESIGN §11, rule 1).
type Target interface {
	// Decode parses a full or delta payload. The values may belong to the
	// target and be valid only until its next Decode.
	Decode(payload []byte) (*subjob.Snapshot, *subjob.Delta, error)
	// Apply folds a full snapshot, or a delta the Store has checked extends
	// the checkpoint the target last folded.
	Apply(snap *subjob.Snapshot, d *subjob.Delta) Outcome
	// ApplyPartial folds an unchained bounded-error frame. An error leaves
	// the frame unacknowledged; applied=false acknowledges it unfolded.
	ApplyPartial(seq uint64, payload []byte) (applied bool, err error)
}

// Store is the one receiver of a subjob's checkpoint stream on the machine
// that keeps its standby state. It folds every checkpoint into its Target,
// one at a time and in arrival order, and confirms it back to the
// checkpoint manager.
//
// Checkpoints are full snapshots, deltas chained by sequence number, or
// unchained partial frames. A delta is folded only when it extends the
// chain — its PrevSeq is the checkpoint the target last folded and nothing
// broke the chain since. A delta that does not is dropped WITHOUT
// acknowledgment — acknowledging it would let upstream trim data the
// target does not hold — and reported through SetOnChainBreak so the
// manager re-bases with a full snapshot. A checkpoint below an intact
// chain is covered by the chain's head and is acknowledged as it stands.
//
// With a catalog the store is durable: every other checkpoint it
// acknowledges, partial frames excepted, is persisted first. A failed
// persist withholds the acknowledgment and breaks the chain, so upstream
// never trims data the catalog cannot recover.
type Store struct {
	m         *machine.Machine
	sjID      string
	ackStream string // subjob.CkptAckStream(sjID)
	target    Target
	backend   StoreBackend
	catalog   *Catalog
	catKey    string

	mu sync.Mutex
	// chain is the sequence number of the checkpoint the target last
	// folded; linked reports that nothing has broken the chain since.
	chain        uint64
	linked       bool
	durable      uint64
	stored       int
	fulls        int
	deltaFolds   int
	deltaDrops   int
	skipped      int
	onChainBreak func()

	// work is buffered so that the machine's one dispatch goroutine, which
	// every stream on the machine shares, hands a checkpoint over without
	// waiting for the fold in progress: 128 queued checkpoints are over a
	// second of sweeps at the default 10 ms interval.
	work chan storeReq
	stop chan struct{}
	done chan struct{}
}

type storeReq struct {
	from transport.NodeID
	msg  transport.Message
}

// StoreOptions configures a Store beyond its machine, subjob and target.
type StoreOptions struct {
	// Backend selects the simulated persistence model (InMemory or
	// SimulatedDisk).
	Backend StoreBackend
	// Catalog, when non-nil, makes the store durable: every checkpoint is
	// persisted through the catalog before it is acknowledged.
	Catalog *Catalog
	// CatalogKey overrides the catalog key (default: the subjob ID). A
	// deployment hosting several copies of one subjob keys each copy as
	// "<subjob>@<instance>" so their checkpoint sequences do not collide.
	CatalogKey string
}

// NewStore creates and starts a store for subjob sjID on machine m that
// folds every checkpoint into target.
func NewStore(m *machine.Machine, sjID string, target Target, opts StoreOptions) *Store {
	if opts.CatalogKey == "" {
		opts.CatalogKey = sjID
	}
	s := &Store{
		m:         m,
		sjID:      sjID,
		ackStream: subjob.CkptAckStream(sjID),
		target:    target,
		backend:   opts.Backend,
		catalog:   opts.Catalog,
		catKey:    opts.CatalogKey,
		work:      make(chan storeReq, 128),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	m.RegisterStream(subjob.CkptStream(sjID), s.receive)
	go s.run()
	return s
}

// receive is the checkpoint-stream handler: it queues the message for the
// store goroutine.
func (s *Store) receive(from transport.NodeID, msg transport.Message) {
	select {
	case s.work <- storeReq{from: from, msg: msg}:
	case <-s.stop:
	}
}

func (s *Store) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			// Shutdown fence: checkpoints already queued were accepted from
			// the transport and their senders may be waiting on the
			// acknowledgments; returning without folding them would drop
			// acks that Close's caller believes are settled. Close
			// unregisters the handler before closing stop, so this drain
			// observes the final backlog.
			for {
				select {
				case req := <-s.work:
					s.Fold(req.from, req.msg)
				default:
					return
				}
			}
		case req := <-s.work:
			s.Fold(req.from, req.msg)
		}
	}
}

// Fold runs one checkpoint message through the store: chain check, fold
// into the target, persist, acknowledgment. The store's goroutine calls it
// for every message the handler queues; anyone else may call it only on a
// closed store, whose goroutine has exited.
func (s *Store) Fold(from transport.NodeID, msg transport.Message) {
	if s.backend == SimulatedDisk {
		s.m.CPU().Execute(DefaultDiskLatency)
	}
	if subjob.IsPartial(msg.State) {
		applied, err := s.target.ApplyPartial(msg.Seq, msg.State)
		if err != nil {
			return
		}
		if applied {
			// A partial patches the state out of band of the delta chain:
			// a delta captured against the pre-partial base no longer folds.
			s.mu.Lock()
			s.linked = false
			s.mu.Unlock()
		}
		s.ack(from, msg.Seq)
		return
	}
	s.mu.Lock()
	chain, linked := s.chain, s.linked
	s.mu.Unlock()
	if linked && msg.Seq < chain {
		// Already covered: the chain's head was folded and persisted.
		s.ack(from, msg.Seq)
		return
	}
	snap, delta, err := s.target.Decode(msg.State)
	if err != nil {
		return
	}
	if delta != nil && (!linked || delta.PrevSeq != chain) {
		s.mu.Lock()
		s.deltaDrops++
		s.mu.Unlock()
		s.chainBreak()
		return
	}
	out := s.target.Apply(snap, delta)
	s.mu.Lock()
	switch {
	case out == Folded && delta != nil:
		s.deltaFolds++
	case out == Folded:
		s.fulls++
	case out == Failed && delta != nil:
		s.deltaDrops++
	default:
		s.skipped++
	}
	s.linked = out == Folded
	if s.linked {
		s.chain = msg.Seq
	}
	s.mu.Unlock()
	if out == Failed {
		s.chainBreak()
		return
	}
	if out == Superseded && delta != nil {
		return
	}

	if s.catalog != nil {
		units := 0
		if delta != nil {
			units = delta.ElementUnits()
		} else {
			units = snap.ElementUnits()
		}
		if err := s.catalog.put(s.catKey, msg.Seq, units, msg.State); err != nil {
			s.mu.Lock()
			s.linked = false
			s.mu.Unlock()
			s.chainBreak()
			return
		}
		s.mu.Lock()
		s.durable = msg.Seq
		s.mu.Unlock()
	}
	s.ack(from, msg.Seq)
}

// ack confirms checkpoint seq to the manager that shipped it.
func (s *Store) ack(to transport.NodeID, seq uint64) {
	s.mu.Lock()
	s.stored++
	s.mu.Unlock()
	s.m.Send(to, transport.Message{
		Kind:    transport.KindControl,
		Stream:  s.ackStream,
		Command: "ckpt-stored",
		Seq:     seq,
	})
}

func (s *Store) chainBreak() {
	s.mu.Lock()
	fn := s.onChainBreak
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Latest returns a copy of the snapshot an Image target holds, or false
// when it holds none or the target is not an Image. SimulatedDisk stores
// pay a read latency.
func (s *Store) Latest() (*subjob.Snapshot, bool) {
	im, ok := s.target.(*Image)
	if !ok {
		return nil, false
	}
	if s.backend == SimulatedDisk {
		s.m.CPU().Execute(DefaultDiskLatency)
	}
	return im.snapshot()
}

// SetOnChainBreak installs a callback invoked (from the store goroutine)
// whenever a delta is dropped because it did not extend the chain, a fold
// fails or a persist fails. The HA lifecycle uses it to force the
// manager's next checkpoint full instead of waiting for the pending-window
// heuristic.
func (s *Store) SetOnChainBreak(fn func()) {
	s.mu.Lock()
	s.onChainBreak = fn
	s.mu.Unlock()
}

// StoreStats is a JSON-marshalable view of a checkpoint store, exported
// through the metrics registry.
type StoreStats struct {
	Subjob    string `json:"subjob"`
	Stored    int    `json:"stored"`
	LatestSeq uint64 `json:"latest_seq"`
	// Fulls counts full-snapshot re-bases; DeltaFolds counts deltas folded
	// into the target; DeltaDrops counts deltas dropped unacknowledged
	// because they did not extend the chain or failed to fold; Skipped
	// counts the other checkpoints the target did not fold: its own state
	// was newer or live, or a full failed to restore.
	Fulls      int `json:"fulls_stored"`
	DeltaFolds int `json:"delta_folds"`
	DeltaDrops int `json:"delta_drops"`
	Skipped    int `json:"skipped"`
	// Catalog activity, populated only when the store persists through a
	// catalog: DurableSeq is the newest persisted checkpoint,
	// Persisted/PersistErrors/GCRemoved count catalog writes, failed
	// writes, and retention removals.
	DurableSeq    uint64 `json:"durable_seq,omitempty"`
	Persisted     int    `json:"persisted,omitempty"`
	PersistErrors int    `json:"persist_errors,omitempty"`
	GCRemoved     int    `json:"gc_removed,omitempty"`
}

// Stats captures the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{
		Subjob:     s.sjID,
		Stored:     s.stored,
		LatestSeq:  s.chain,
		Fulls:      s.fulls,
		DeltaFolds: s.deltaFolds,
		DeltaDrops: s.deltaDrops,
		Skipped:    s.skipped,
		DurableSeq: s.durable,
	}
	s.mu.Unlock()
	if s.catalog != nil {
		ctr := s.catalog.counters(s.catKey)
		st.Persisted = ctr.Persisted
		st.PersistErrors = ctr.PersistErrs
		st.GCRemoved = ctr.GCRemoved
	}
	return st
}

// Close stops the store and unregisters its handler. The handler is
// unregistered FIRST, so no new checkpoints enter the work queue after
// stop closes; run() then drains and folds what is already queued before
// exiting. The reverse order raced: a handler delivery between the two
// could be accepted into the queue and silently dropped — its sender
// never saw the acknowledgment.
func (s *Store) Close() {
	select {
	case <-s.stop:
		return
	default:
	}
	s.m.UnregisterStream(subjob.CkptStream(s.sjID))
	close(s.stop)
	<-s.done
}

// Image is the Target a recovery copy is deployed from (passive standby,
// hybrid without pre-deployment, durable streamha-node copies): the newest
// full snapshot with every delta that extends it folded in. The zero value
// is an empty image.
type Image struct {
	// dec decodes deltas; the store's goroutine is its only user.
	dec subjob.Decoder

	mu     sync.Mutex
	latest *subjob.Snapshot
}

// Decode decodes a delta into the image's own decoder, out of which the
// fold copies what it keeps, and a full into fresh values: the image keeps
// a full snapshot and folds deltas into it in place (DESIGN §11, rule 3).
func (im *Image) Decode(payload []byte) (*subjob.Snapshot, *subjob.Delta, error) {
	snap, d, err := im.dec.Decode(payload)
	if snap != nil {
		// The full becomes the image, which outlives the decoder's next
		// Decode. Its PE states only alias the payload, so decoding it again
		// copies little.
		return subjob.DecodeCheckpoint(payload)
	}
	return nil, d, err
}

// Apply implements Target. A full's PE states are copied into the buffers
// the image held, so the image keeps nothing of the payload, which goes
// back to its sender once the store acknowledges it.
func (im *Image) Apply(snap *subjob.Snapshot, d *subjob.Delta) Outcome {
	im.mu.Lock()
	defer im.mu.Unlock()
	if d == nil {
		snap.OwnStates(im.latest)
		im.latest = snap
		return Folded
	}
	if err := im.latest.ApplyDelta(d); err != nil {
		return Failed
	}
	return Folded
}

// ApplyPartial implements Target: partial frames patch a live standby and
// are never folded into an image.
func (im *Image) ApplyPartial(uint64, []byte) (bool, error) {
	return false, errors.New("checkpoint: an image folds no partial frames")
}

// snapshot returns a copy of the image, or false if it holds none. The
// copy is the caller's: delta folds mutate the image in place, so handing
// out the internal pointer would race with them.
func (im *Image) snapshot() (*subjob.Snapshot, bool) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if im.latest == nil {
		return nil, false
	}
	return im.latest.Clone(), true
}
