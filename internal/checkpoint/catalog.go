// The checkpoint catalog: sequence-chained full + delta history per
// subjob on top of a pluggable Backend, with retention by count and age.
// It mirrors the chain rule of Store, whatever its target — a delta is
// meaningful only relative to the entry whose sequence equals its
// PrevSeq — so a catalog restore replays exactly the chain a standby
// would have folded in memory, but from durable storage after a cold
// restart.
package checkpoint

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"streamha/internal/subjob"
)

// Retention bounds how much history a catalog keeps per subjob. The
// chain of the current head is always pinned regardless of the bound:
// collecting a full snapshot that a live delta chain still folds onto
// would make the head unrestorable.
type Retention struct {
	// MaxCheckpoints caps the number of entries per subjob (0: unlimited).
	MaxCheckpoints int
}

// Catalog maintains the durable checkpoint history of any number of
// subjobs. It is safe for concurrent use; stores persist into it as they
// acknowledge, and recovery paths read from it.
type Catalog struct {
	b   Backend
	ret Retention

	mu          sync.Mutex
	persisted   map[string]int
	persistErrs map[string]int
	gcRemoved   map[string]int
}

// NewCatalog creates a catalog over b with retention ret.
func NewCatalog(b Backend, ret Retention) *Catalog {
	return &Catalog{
		b:           b,
		ret:         ret,
		persisted:   make(map[string]int),
		persistErrs: make(map[string]int),
		gcRemoved:   make(map[string]int),
	}
}

// Backend returns the catalog's persistence backend.
func (c *Catalog) Backend() Backend { return c.b }

// put persists one encoded checkpoint payload for sj at seq, deriving
// kind and chain linkage from the payload header, then applies retention.
// A failed persist is counted and returned; the caller (a store) must
// then withhold its acknowledgment, since upstream would otherwise trim
// data the catalog cannot recover.
//
// The catalog key sj is normally the payload's own subjob ID and the two
// are cross-checked; sj may also carry an "@instance" suffix
// (e.g. "job/sj0@p0") so several copies of one subjob — each with its
// own checkpoint sequence — keep disjoint histories in one catalog. Only
// the part before the '@' must match the payload.
func (c *Catalog) put(sj string, seq uint64, units int, payload []byte) error {
	info, err := subjob.PeekCheckpoint(payload)
	base := sj
	if i := strings.IndexByte(sj, '@'); i >= 0 {
		base = sj[:i]
	}
	if err == nil && info.SubjobID != base {
		err = fmt.Errorf("checkpoint: payload for %q cataloged under %q", info.SubjobID, sj)
	}
	if err != nil {
		c.mu.Lock()
		c.persistErrs[sj]++
		c.mu.Unlock()
		return err
	}
	e := CatalogEntry{
		Subjob: sj,
		Seq:    seq,
		Kind:   KindFull,
		Units:  units,
		Bytes:  len(payload),
	}
	if info.IsDelta {
		e.Kind = KindDelta
		e.PrevSeq = info.PrevSeq
	}
	e.StoredAt = time.Now().UnixMilli()
	if err := c.b.Put(e, payload); err != nil {
		c.mu.Lock()
		c.persistErrs[sj]++
		c.mu.Unlock()
		return err
	}
	c.mu.Lock()
	c.persisted[sj]++
	c.mu.Unlock()
	return c.gc(sj)
}

// Entries returns sj's cataloged checkpoints, sorted by sequence number.
func (c *Catalog) Entries(sj string) ([]CatalogEntry, error) { return c.b.List(sj) }

// Subjobs returns every subjob with cataloged checkpoints.
func (c *Catalog) Subjobs() ([]string, error) { return c.b.Subjobs() }

// chainOf returns the seq-ascending chain ending at the entry with seq
// head: the full snapshot it roots at plus every delta between, walked
// backwards via PrevSeq. ok is false when the chain is incomplete (a
// link is missing or no full snapshot roots it).
func chainOf(bySeq map[uint64]CatalogEntry, head uint64) ([]CatalogEntry, bool) {
	var rev []CatalogEntry
	seq := head
	for {
		e, ok := bySeq[seq]
		if !ok {
			return nil, false
		}
		rev = append(rev, e)
		if e.IsFull() {
			break
		}
		if e.PrevSeq >= seq {
			return nil, false // a delta must chain strictly backwards
		}
		seq = e.PrevSeq
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// chainHead returns the highest sequence number whose chain is complete
// in entries, or 0 when no entry is restorable.
func chainHead(entries []CatalogEntry) uint64 {
	bySeq := make(map[uint64]CatalogEntry, len(entries))
	for _, e := range entries {
		bySeq[e.Seq] = e
	}
	best := uint64(0)
	for _, e := range entries {
		if e.Seq <= best {
			continue
		}
		if _, ok := chainOf(bySeq, e.Seq); ok {
			best = e.Seq
		}
	}
	return best
}

// Head returns the highest restorable sequence number for sj, or ok=false
// when the catalog holds no complete chain for it.
func (c *Catalog) Head(sj string) (uint64, bool, error) {
	entries, err := c.b.List(sj)
	if err != nil {
		return 0, false, err
	}
	head := chainHead(entries)
	return head, head != 0, nil
}

// Restore folds sj's cataloged chain ending at atSeq (0: the current
// head) into a full snapshot, returning it with the sequence number it
// represents. This is the cold-restart counterpart of Store.Latest: the
// same PrevSeq chain, folded by Snapshot.ApplyDelta, but read from
// durable storage.
func (c *Catalog) Restore(sj string, atSeq uint64) (*subjob.Snapshot, uint64, error) {
	entries, err := c.b.List(sj)
	if err != nil {
		return nil, 0, err
	}
	if atSeq == 0 {
		if atSeq = chainHead(entries); atSeq == 0 {
			return nil, 0, fmt.Errorf("checkpoint: no restorable chain for %s", sj)
		}
	}
	bySeq := make(map[uint64]CatalogEntry, len(entries))
	for _, e := range entries {
		bySeq[e.Seq] = e
	}
	chain, ok := chainOf(bySeq, atSeq)
	if !ok {
		return nil, 0, fmt.Errorf("checkpoint: chain for %s@%d is incomplete", sj, atSeq)
	}
	var snap *subjob.Snapshot
	for _, e := range chain {
		payload, err := c.b.Load(sj, e.Seq)
		if err != nil {
			return nil, 0, fmt.Errorf("checkpoint: load %s@%d: %w", sj, e.Seq, err)
		}
		full, delta, err := subjob.DecodeCheckpoint(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("checkpoint: decode %s@%d: %w", sj, e.Seq, err)
		}
		switch {
		case full != nil:
			snap = full
		case snap == nil:
			return nil, 0, fmt.Errorf("checkpoint: chain for %s@%d starts with a delta", sj, atSeq)
		default:
			if err := snap.ApplyDelta(delta); err != nil {
				return nil, 0, fmt.Errorf("checkpoint: fold %s@%d: %w", sj, e.Seq, err)
			}
		}
	}
	return snap, atSeq, nil
}

// Compact folds sj's head chain into a single full snapshot, rewrites it
// at the head sequence number, and removes every other entry. The
// `streamha-node checkpoint restore` subcommand runs it so a restarting
// process restores from one full read.
func (c *Catalog) Compact(sj string) (uint64, error) {
	snap, head, err := c.Restore(sj, 0)
	if err != nil {
		return 0, err
	}
	payload, err := snap.Encode()
	if err != nil {
		return 0, err
	}
	if err := c.put(sj, head, snap.ElementUnits(), payload); err != nil {
		return 0, err
	}
	entries, err := c.b.List(sj)
	if err != nil {
		return head, err
	}
	for _, e := range entries {
		if e.Seq == head {
			continue
		}
		if err := c.b.Remove(sj, e.Seq); err != nil {
			return head, err
		}
		c.mu.Lock()
		c.gcRemoved[sj]++
		c.mu.Unlock()
	}
	return head, nil
}

// gc applies retention to sj. The head chain is pinned: no entry the
// current head still folds onto is ever collected, whatever the bound
// says. Entries above the head — deltas that arrived out of order and are
// waiting for a missing link — are pinned too, since a late arrival can
// complete their chain and move the head past them. The count bound
// applies to everything else, oldest first.
func (c *Catalog) gc(sj string) error {
	limit := c.ret.MaxCheckpoints
	if limit <= 0 {
		return nil
	}
	entries, err := c.b.List(sj)
	if err != nil || len(entries) <= limit {
		return err
	}
	bySeq := make(map[uint64]CatalogEntry, len(entries))
	for _, e := range entries {
		bySeq[e.Seq] = e
	}
	head := chainHead(entries)
	pinned := make(map[uint64]bool)
	if head != 0 {
		chain, _ := chainOf(bySeq, head)
		for _, e := range chain {
			pinned[e.Seq] = true
		}
	}
	for _, e := range entries {
		if e.Seq > head {
			pinned[e.Seq] = true
		}
	}

	excess := len(entries) - limit
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	for _, e := range entries {
		if excess == 0 {
			break
		}
		if pinned[e.Seq] {
			continue
		}
		if err := c.b.Remove(sj, e.Seq); err != nil {
			return err
		}
		c.mu.Lock()
		c.gcRemoved[sj]++
		c.mu.Unlock()
		excess--
	}
	return nil
}

// SubjobCounters is the catalog's per-subjob activity view, merged into
// StoreStats by the stores that persist through it.
type SubjobCounters struct {
	Persisted   int `json:"persisted"`
	PersistErrs int `json:"persist_errors"`
	GCRemoved   int `json:"gc_removed"`
}

// counters returns the catalog's activity counters for sj.
func (c *Catalog) counters(sj string) SubjobCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SubjobCounters{
		Persisted:   c.persisted[sj],
		PersistErrs: c.persistErrs[sj],
		GCRemoved:   c.gcRemoved[sj],
	}
}

// CatalogStats is a JSON-marshalable view of the whole catalog, exported
// through the metrics registry.
type CatalogStats struct {
	Subjobs   int `json:"subjobs"`
	Entries   int `json:"entries"`
	Bytes     int `json:"bytes"`
	Persisted int `json:"persisted"`
	Errors    int `json:"persist_errors"`
	GCRemoved int `json:"gc_removed"`
}

// Stats sums entry counts and sizes across every cataloged subjob.
func (c *Catalog) Stats() CatalogStats {
	var st CatalogStats
	if sjs, err := c.b.Subjobs(); err == nil {
		for _, sj := range sjs {
			entries, err := c.b.List(sj)
			if err != nil || len(entries) == 0 {
				continue
			}
			st.Subjobs++
			st.Entries += len(entries)
			for _, e := range entries {
				st.Bytes += e.Bytes
			}
		}
	}
	c.mu.Lock()
	for _, v := range c.persisted {
		st.Persisted += v
	}
	for _, v := range c.persistErrs {
		st.Errors += v
	}
	for _, v := range c.gcRemoved {
		st.GCRemoved += v
	}
	c.mu.Unlock()
	return st
}
