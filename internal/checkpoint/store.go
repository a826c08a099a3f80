package checkpoint

import (
	"sort"
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
	// SimulatedDisk pads every store operation with a disk-write latency,
	// modeling a conventional persistent store.
	SimulatedDisk
)

// DefaultDiskLatency approximates one synchronous write to spinning disk
// at the experiments' one-tenth timescale.
const DefaultDiskLatency = 800 * time.Microsecond

// Store holds the latest checkpoint of one subjob on a secondary machine
// and confirms each stored checkpoint back to the checkpoint manager.
// Passive standby reads the stored snapshot when deploying a recovery
// copy.
//
// Checkpoints may be full snapshots or deltas chained by sequence number.
// The store folds each delta into its current image, advancing the chain
// one sequence at a time; a delta that does not extend the chain is
// dropped WITHOUT acknowledgment — acknowledging it would let upstream
// trim data the store cannot actually recover — and the manager rebases
// with a full snapshot once its pending window grows. When checkpoints
// arrive faster than they can be decoded, the backlog is coalesced: the
// newest full snapshot re-bases the image, older fulls and subsumed
// deltas are skipped, and every checkpoint the final image covers is
// acknowledged.
type Store struct {
	m           *machine.Machine
	sjID        string
	ackStream   string // subjob.CkptAckStream(sjID)
	backend     StoreBackend
	diskLatency time.Duration
	catalog     *Catalog
	catKey      string

	mu           sync.Mutex
	latest       *subjob.Snapshot
	seq          uint64
	persistedSeq uint64
	stored       int
	fulls        int
	deltaFolds   int
	deltaDrops   int
	lastUnits    int
	onChainBreak func()
	work         chan storeReq
	stop         chan struct{}
	done         chan struct{}
}

type storeReq struct {
	from transport.NodeID
	msg  transport.Message
}

// StoreOptions configures a Store beyond its hosting machine and subjob.
type StoreOptions struct {
	// Backend selects the simulated persistence model (InMemory or
	// SimulatedDisk).
	Backend StoreBackend
	// DiskLatency overrides the SimulatedDisk write latency (0: default).
	DiskLatency time.Duration
	// Catalog, when non-nil, makes the store durable: every checkpoint
	// that advances the chain is persisted through the catalog before it
	// is acknowledged, so upstream never trims data the catalog cannot
	// recover after a cold restart.
	Catalog *Catalog
	// CatalogKey overrides the catalog key (default: the subjob ID). A
	// deployment hosting several copies of one subjob keys each copy as
	// "<subjob>@<instance>" so their checkpoint sequences do not collide.
	CatalogKey string
}

// NewStore creates and starts a store for subjob sjID on machine m.
func NewStore(m *machine.Machine, sjID string, backend StoreBackend, diskLatency time.Duration) *Store {
	return NewStoreWith(m, sjID, StoreOptions{Backend: backend, DiskLatency: diskLatency})
}

// NewStoreWith creates and starts a store for subjob sjID on machine m
// with the given options.
func NewStoreWith(m *machine.Machine, sjID string, opts StoreOptions) *Store {
	if opts.DiskLatency <= 0 {
		opts.DiskLatency = DefaultDiskLatency
	}
	if opts.CatalogKey == "" {
		opts.CatalogKey = sjID
	}
	s := &Store{
		m:           m,
		sjID:        sjID,
		ackStream:   subjob.CkptAckStream(sjID),
		backend:     opts.Backend,
		diskLatency: opts.DiskLatency,
		catalog:     opts.Catalog,
		catKey:      opts.CatalogKey,
		work:        make(chan storeReq, 128),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	m.RegisterStream(subjob.CkptStream(sjID), func(from transport.NodeID, msg transport.Message) {
		select {
		case s.work <- storeReq{from: from, msg: msg}:
		case <-s.stop:
		}
	})
	go s.run()
	return s
}

func (s *Store) run() {
	defer close(s.done)
	// batch is the drained backlog, recycled between rounds.
	var batch []storeReq
	for {
		select {
		case <-s.stop:
			// Shutdown fence: checkpoints already queued were accepted from
			// the transport and their senders may be waiting on the
			// acknowledgments; returning without storing them would drop
			// acks that Close's caller believes are settled. Close
			// unregisters the handler before closing stop, so this drain
			// observes the final backlog.
			batch = batch[:0]
			for {
				select {
				case req := <-s.work:
					batch = append(batch, req)
				default:
					if len(batch) > 0 {
						s.store(batch)
					}
					return
				}
			}
		case req := <-s.work:
			batch = append(batch[:0], req)
		drain:
			for {
				select {
				case more := <-s.work:
					batch = append(batch, more)
				default:
					break drain
				}
			}
			s.store(batch)
			for i := range batch {
				batch[i] = storeReq{}
			}
		}
	}
}

func (s *Store) store(batch []storeReq) {
	// Fold in sequence order; the shipper sends in capture order but a
	// coalesced backlog is easier to reason about sorted.
	sort.Slice(batch, func(i, j int) bool { return batch[i].msg.Seq < batch[j].msg.Seq })

	s.mu.Lock()
	chain := s.seq
	s.mu.Unlock()

	// The newest full snapshot that advances the chain re-bases the image;
	// older fulls and the deltas it subsumes are never decoded.
	fullIdx := -1
	for i := range batch {
		if batch[i].msg.Seq > chain && !subjob.IsDelta(batch[i].msg.State) {
			fullIdx = i
		}
	}
	var newFull *subjob.Snapshot
	baseSeq := chain
	if fullIdx >= 0 {
		if snap, err := subjob.DecodeSnapshot(batch[fullIdx].msg.State); err == nil {
			newFull = snap
			baseSeq = batch[fullIdx].msg.Seq
		}
	}
	type seqDelta struct {
		seq     uint64
		d       *subjob.Delta
		payload []byte
	}
	var deltas []seqDelta
	for i := range batch {
		m := &batch[i].msg
		if m.Seq <= baseSeq || !subjob.IsDelta(m.State) {
			continue
		}
		if d, err := subjob.DecodeDelta(m.State); err == nil {
			deltas = append(deltas, seqDelta{seq: m.Seq, d: d, payload: m.State})
		}
	}

	if s.backend == SimulatedDisk {
		s.m.CPU().Execute(s.diskLatency)
	}

	// toPersist records, in chain order, the raw payload of every
	// checkpoint that advances the in-memory chain; with a catalog
	// attached these must become durable before their acknowledgments go
	// out.
	type persistItem struct {
		seq     uint64
		units   int
		payload []byte
	}
	var toPersist []persistItem

	s.mu.Lock()
	dropsBefore := s.deltaDrops
	if newFull != nil {
		s.latest = newFull
		chain = baseSeq
		s.fulls++
		if s.catalog != nil {
			toPersist = append(toPersist, persistItem{baseSeq, newFull.ElementUnits(), batch[fullIdx].msg.State})
		}
	}
	for _, sd := range deltas {
		if s.latest == nil || sd.d.PrevSeq != chain {
			s.deltaDrops++
			continue
		}
		units := sd.d.ElementUnits()
		payload := sd.payload
		if err := s.latest.ApplyDelta(sd.d); err != nil {
			// The image may be partially folded; the chain stays put so the
			// manager's next full snapshot re-bases it.
			s.deltaDrops++
			continue
		}
		chain = sd.seq
		s.deltaFolds++
		if s.catalog != nil {
			toPersist = append(toPersist, persistItem{sd.seq, units, payload})
		}
	}
	dropped := s.deltaDrops > dropsBefore
	onChainBreak := s.onChainBreak
	advanced := chain > s.seq
	s.seq = chain
	if advanced && s.latest != nil {
		s.lastUnits = s.latest.ElementUnits()
	}
	durable := s.persistedSeq
	s.mu.Unlock()

	// Persist-before-ack: advance the durable watermark through the folded
	// chain in order. The first failed write stops it — the in-memory
	// image is ahead of the catalog then, acknowledgments are withheld at
	// the durable watermark, and the chain break forces the manager's next
	// checkpoint full, which re-bases the catalog and self-heals the gap.
	persistFailed := false
	ackCeil := chain
	if s.catalog != nil {
		for _, it := range toPersist {
			if err := s.catalog.Put(s.catKey, it.seq, it.units, it.payload); err != nil {
				persistFailed = true
				break
			}
			durable = it.seq
		}
		s.mu.Lock()
		if durable > s.persistedSeq {
			s.persistedSeq = durable
		}
		s.mu.Unlock()
		ackCeil = durable
	}

	accepted := 0
	for i := range batch {
		if batch[i].msg.Seq <= ackCeil {
			accepted++
		}
	}
	s.mu.Lock()
	s.stored += accepted
	s.mu.Unlock()

	if (dropped || persistFailed) && onChainBreak != nil {
		onChainBreak()
	}

	for i := range batch {
		if batch[i].msg.Seq > ackCeil {
			// Unfoldable, undecodable or unpersisted checkpoint: no
			// acknowledgment, so upstream keeps the data it would have
			// trimmed.
			continue
		}
		s.m.Send(batch[i].from, transport.Message{
			Kind:    transport.KindControl,
			Stream:  s.ackStream,
			Command: "ckpt-stored",
			Seq:     batch[i].msg.Seq,
		})
	}
}

// Latest returns a copy of the most recent stored snapshot, or false if
// none. The copy is the caller's: delta folds mutate the stored image in
// place, so handing out the internal pointer would race with them.
// SimulatedDisk stores pay a read latency.
func (s *Store) Latest() (*subjob.Snapshot, bool) {
	if s.backend == SimulatedDisk {
		s.m.CPU().Execute(s.diskLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == nil {
		return nil, false
	}
	return s.latest.Clone(), true
}

// SetOnChainBreak installs a callback invoked (from the store goroutine)
// whenever a delta is dropped because it did not extend the chain. The HA
// lifecycle uses it to force the manager's next checkpoint full instead of
// waiting for the pending-window heuristic.
func (s *Store) SetOnChainBreak(fn func()) {
	s.mu.Lock()
	s.onChainBreak = fn
	s.mu.Unlock()
}

// Stored returns the number of checkpoints accepted (acknowledged).
func (s *Store) Stored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stored
}

// StoreStats is a JSON-marshalable view of a checkpoint store, exported
// through the metrics registry.
type StoreStats struct {
	Subjob    string `json:"subjob"`
	Stored    int    `json:"stored"`
	LatestSeq uint64 `json:"latest_seq"`
	LastUnits int    `json:"last_size_units"`
	// Fulls counts full-snapshot re-bases; DeltaFolds counts deltas folded
	// into the image; DeltaDrops counts deltas dropped unacknowledged
	// because they did not extend the chain.
	Fulls      int `json:"fulls_stored"`
	DeltaFolds int `json:"delta_folds"`
	DeltaDrops int `json:"delta_drops"`
	// Catalog activity, populated only when the store persists through a
	// catalog: DurableSeq is the durable watermark (acknowledgments never
	// pass it), Persisted/PersistErrors/GCRemoved count catalog writes,
	// failed writes, and retention removals.
	DurableSeq    uint64 `json:"durable_seq,omitempty"`
	Persisted     int    `json:"persisted,omitempty"`
	PersistErrors int    `json:"persist_errors,omitempty"`
	GCRemoved     int    `json:"gc_removed,omitempty"`
}

// Stats captures how many checkpoints the store has taken in and the size
// of the latest one, in element units.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{
		Subjob:     s.sjID,
		Stored:     s.stored,
		LatestSeq:  s.seq,
		LastUnits:  s.lastUnits,
		Fulls:      s.fulls,
		DeltaFolds: s.deltaFolds,
		DeltaDrops: s.deltaDrops,
		DurableSeq: s.persistedSeq,
	}
	s.mu.Unlock()
	if s.catalog != nil {
		ctr := s.catalog.Counters(s.catKey)
		st.Persisted = ctr.Persisted
		st.PersistErrors = ctr.PersistErrs
		st.GCRemoved = ctr.GCRemoved
	}
	return st
}

// Close stops the store and unregisters its handler. The handler is
// unregistered FIRST, so no new checkpoints enter the work queue after
// stop closes; run() then drains and stores what is already queued
// before exiting. The previous order (stop first, unregister after)
// raced: a handler delivery between the two could be accepted into the
// queue and silently dropped — its sender never saw the acknowledgment.
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
