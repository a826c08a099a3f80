// Durable checkpoint persistence: the Backend interface abstracts where
// catalog entries live, with an in-memory implementation (the hybrid
// method's default — checkpoints refresh standby memory and durability is
// a non-goal) and a local-disk implementation that makes cold-restart
// recovery possible (see catalog.go).
//
// The disk layout is one directory per subjob (the subjob ID is
// path-escaped, since IDs contain '/'):
//
//	<root>/<escaped-subjob>/<seq as %016x>.ckpt   encoded payload (SHS2/SHD2)
//	<root>/<escaped-subjob>/MANIFEST.json         entry index + chain head
//
// Crash safety is temp-file + rename: a payload is written to a .tmp
// name, fsynced, renamed into place, and only then is the manifest
// rewritten (also via temp + rename + fsync). A crash between the two
// leaves an orphaned payload file, which Open adopts back into the
// manifest by peeking its header; a crash mid-write leaves a .tmp file,
// which Open deletes. The manifest is therefore never ahead of the
// payloads it indexes.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"streamha/internal/subjob"
)

// CatalogEntry indexes one persisted checkpoint.
type CatalogEntry struct {
	// Subjob is the copy-agnostic subjob ID the checkpoint belongs to.
	Subjob string `json:"subjob"`
	// Seq is the checkpoint sequence number assigned by the manager.
	Seq uint64 `json:"seq"`
	// Kind is "full" or "delta".
	Kind string `json:"kind"`
	// PrevSeq is the chain predecessor; meaningful only for deltas.
	PrevSeq uint64 `json:"prev_seq,omitempty"`
	// Units is the checkpoint's size in element-equivalents.
	Units int `json:"units"`
	// Bytes is the encoded payload length.
	Bytes int `json:"bytes"`
	// StoredAt is the persist time in Unix milliseconds (0 if unknown).
	StoredAt int64 `json:"stored_at_ms,omitempty"`
}

// IsFull reports whether the entry indexes a full snapshot.
func (e CatalogEntry) IsFull() bool { return e.Kind == KindFull }

// Entry kinds.
const (
	KindFull  = "full"
	KindDelta = "delta"
)

// Backend persists encoded checkpoint payloads keyed by (subjob, seq).
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put persists a payload under its entry, replacing any previous
	// checkpoint with the same (subjob, seq). The backend owns neither
	// slice after the call returns.
	Put(e CatalogEntry, payload []byte) error
	// Load returns the payload stored for (sj, seq).
	Load(sj string, seq uint64) ([]byte, error)
	// List returns the entries stored for sj, sorted by sequence number.
	List(sj string) ([]CatalogEntry, error)
	// Subjobs returns every subjob ID with at least one entry.
	Subjobs() ([]string, error)
	// Remove deletes the checkpoint stored for (sj, seq); removing a
	// missing entry is not an error.
	Remove(sj string, seq uint64) error
}

// MemBackend is the in-memory Backend: catalog semantics (chains,
// retention, restore) without durability. Tests and single-process
// deployments use it.
type MemBackend struct {
	mu      sync.Mutex
	entries map[string]map[uint64]CatalogEntry
	payload map[string]map[uint64][]byte
}

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		entries: make(map[string]map[uint64]CatalogEntry),
		payload: make(map[string]map[uint64][]byte),
	}
}

// Put implements Backend.
func (m *MemBackend) Put(e CatalogEntry, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[e.Subjob] == nil {
		m.entries[e.Subjob] = make(map[uint64]CatalogEntry)
		m.payload[e.Subjob] = make(map[uint64][]byte)
	}
	m.entries[e.Subjob][e.Seq] = e
	m.payload[e.Subjob][e.Seq] = append([]byte(nil), payload...)
	return nil
}

// Load implements Backend.
func (m *MemBackend) Load(sj string, seq uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.payload[sj][seq]
	if !ok {
		return nil, fmt.Errorf("checkpoint: no entry %s/%d", sj, seq)
	}
	return append([]byte(nil), p...), nil
}

// List implements Backend.
func (m *MemBackend) List(sj string) ([]CatalogEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]CatalogEntry, 0, len(m.entries[sj]))
	for _, e := range m.entries[sj] {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Subjobs implements Backend.
func (m *MemBackend) Subjobs() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for sj, es := range m.entries {
		if len(es) > 0 {
			out = append(out, sj)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Remove implements Backend.
func (m *MemBackend) Remove(sj string, seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.entries[sj], seq)
	delete(m.payload[sj], seq)
	return nil
}

const (
	manifestName = "MANIFEST.json"
	ckptSuffix   = ".ckpt"
	tmpSuffix    = ".tmp"
)

// manifest is the per-subjob on-disk index.
type manifest struct {
	// Entries indexes every payload file, sorted by sequence number.
	Entries []CatalogEntry `json:"entries"`
	// ChainHead is the highest sequence number whose full+delta chain is
	// complete in this directory, recorded for operators inspecting the
	// catalog; the catalog recomputes it from the entries on every GC.
	ChainHead uint64 `json:"chain_head"`
}

// DiskBackend is the local-disk Backend: crash-safe temp-file + rename
// writes of exact-size binary-codec payloads, one directory per subjob
// with a JSON manifest indexing the entries.
type DiskBackend struct {
	root string

	mu sync.Mutex
	// manifests caches each subjob's manifest; loaded (with orphan
	// adoption) on first touch.
	manifests map[string]*manifest
}

// NewDiskBackend opens (creating if necessary) a disk backend rooted at
// dir.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open catalog dir: %w", err)
	}
	return &DiskBackend{root: dir, manifests: make(map[string]*manifest)}, nil
}

func subjobDirName(sj string) string { return url.PathEscape(sj) }

func payloadName(seq uint64) string { return fmt.Sprintf("%016x%s", seq, ckptSuffix) }

func seqOfPayload(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(name, ckptSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (d *DiskBackend) dirOf(sj string) string { return filepath.Join(d.root, subjobDirName(sj)) }

// writeFileSync writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place — the write is either
// fully visible under its final name or not at all.
func writeFileSync(path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Filesystems that cannot sync directories are tolerated.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	f.Sync()
	return nil
}

// loadManifestLocked returns sj's manifest, reading (and repairing) the
// directory on first touch. The caller holds d.mu.
func (d *DiskBackend) loadManifestLocked(sj string) (*manifest, error) {
	if mf, ok := d.manifests[sj]; ok {
		return mf, nil
	}
	dir := d.dirOf(sj)
	mf := &manifest{}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, mf); err != nil {
			return nil, fmt.Errorf("checkpoint: parse %s manifest: %w", sj, err)
		}
	case os.IsNotExist(err):
		// Fresh subjob (or a crash before the first manifest write).
	default:
		return nil, err
	}

	// Repair: delete interrupted temp writes, drop manifest entries whose
	// payload is gone, and adopt orphaned payload files (renamed into
	// place before the crash cut the manifest update short).
	if names, err := os.ReadDir(dir); err == nil {
		indexed := make(map[uint64]bool, len(mf.Entries))
		for _, e := range mf.Entries {
			indexed[e.Seq] = true
		}
		onDisk := make(map[uint64]bool)
		for _, de := range names {
			name := de.Name()
			if strings.HasSuffix(name, tmpSuffix) {
				os.Remove(filepath.Join(dir, name))
				continue
			}
			seq, ok := seqOfPayload(name)
			if !ok {
				continue
			}
			onDisk[seq] = true
			if indexed[seq] {
				continue
			}
			if e, ok := d.adopt(dir, sj, seq); ok {
				mf.Entries = append(mf.Entries, e)
			}
		}
		kept := mf.Entries[:0]
		for _, e := range mf.Entries {
			if onDisk[e.Seq] {
				kept = append(kept, e)
			}
		}
		mf.Entries = kept
		sort.Slice(mf.Entries, func(i, j int) bool { return mf.Entries[i].Seq < mf.Entries[j].Seq })
	}
	d.manifests[sj] = mf
	return mf, nil
}

// adopt rebuilds the catalog entry for an orphaned payload file by
// peeking its header. Undecodable files are left in place but unindexed.
func (d *DiskBackend) adopt(dir, sj string, seq uint64) (CatalogEntry, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, payloadName(seq)))
	if err != nil {
		return CatalogEntry{}, false
	}
	info, err := subjob.PeekCheckpoint(raw)
	if err != nil {
		return CatalogEntry{}, false
	}
	e := CatalogEntry{Subjob: sj, Seq: seq, Kind: KindFull, Bytes: len(raw)}
	if info.IsDelta {
		e.Kind = KindDelta
		e.PrevSeq = info.PrevSeq
	}
	return e, true
}

// flushManifestLocked rewrites sj's manifest. The caller holds d.mu.
func (d *DiskBackend) flushManifestLocked(sj string, mf *manifest) error {
	raw, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return writeFileSync(filepath.Join(d.dirOf(sj), manifestName), raw)
}

// Put implements Backend: payload first (temp + fsync + rename), manifest
// second, so the index never references a payload that is not fully on
// disk.
func (d *DiskBackend) Put(e CatalogEntry, payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	dir := d.dirOf(e.Subjob)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mf, err := d.loadManifestLocked(e.Subjob)
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(dir, payloadName(e.Seq)), payload); err != nil {
		return err
	}
	e.Bytes = len(payload)
	replaced := false
	for i := range mf.Entries {
		if mf.Entries[i].Seq == e.Seq {
			mf.Entries[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		mf.Entries = append(mf.Entries, e)
		sort.Slice(mf.Entries, func(i, j int) bool { return mf.Entries[i].Seq < mf.Entries[j].Seq })
	}
	mf.ChainHead = chainHead(mf.Entries)
	return d.flushManifestLocked(e.Subjob, mf)
}

// Load implements Backend.
func (d *DiskBackend) Load(sj string, seq uint64) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.dirOf(sj), payloadName(seq)))
}

// List implements Backend.
func (d *DiskBackend) List(sj string) ([]CatalogEntry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mf, err := d.loadManifestLocked(sj)
	if err != nil {
		return nil, err
	}
	return append([]CatalogEntry(nil), mf.Entries...), nil
}

// Subjobs implements Backend.
func (d *DiskBackend) Subjobs() ([]string, error) {
	names, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range names {
		if !de.IsDir() {
			continue
		}
		sj, err := url.PathUnescape(de.Name())
		if err != nil {
			continue
		}
		out = append(out, sj)
	}
	sort.Strings(out)
	return out, nil
}

// Remove implements Backend: manifest first, payload second, so a crash
// in between leaves an orphan that the next open re-adopts rather than a
// dangling index entry.
func (d *DiskBackend) Remove(sj string, seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	mf, err := d.loadManifestLocked(sj)
	if err != nil {
		return err
	}
	kept := mf.Entries[:0]
	found := false
	for _, e := range mf.Entries {
		if e.Seq == seq {
			found = true
			continue
		}
		kept = append(kept, e)
	}
	if !found {
		return nil
	}
	mf.Entries = kept
	mf.ChainHead = chainHead(mf.Entries)
	if err := d.flushManifestLocked(sj, mf); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(d.dirOf(sj), payloadName(seq))); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
