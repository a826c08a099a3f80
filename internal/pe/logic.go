// Package pe implements processing elements: the user-supplied processing
// logic, the runtime loop that drives it, and the pause/checkpoint/resume
// protocol the checkpoint manager uses (pause(controller), checkpoint(),
// resume() and storeJobState in the paper's PE interface).
package pe

import (
	"encoding/binary"
	"fmt"

	"streamha/internal/element"
)

// Logic is the application-defined transformation of one PE. A Logic must
// be deterministic for the system to guarantee identical results across
// replicas and recoveries; non-deterministic logics still enjoy no-loss
// guarantees, as in the paper.
//
// Process is called once per input element and emits zero or more outputs.
// Implementations derive output IDs with element.DeriveID and propagate
// Origin so that duplicate elimination and end-to-end delay accounting work.
//
// Snapshot and Restore implement the internal-state part of checkpoints:
// the variables that affect future output, not the PE's memory image.
// StateSize reports the snapshot's size in data-element equivalents, the
// unit used for checkpoint message accounting.
//
// The slice handed to Restore (and to DeltaLogic.ApplyDelta) aliases a
// received checkpoint payload that the store, the catalog and later folds
// still read: an implementation must copy or parse what it needs and must
// neither modify nor retain the slice.
type Logic interface {
	Process(e element.Element, emit func(element.Element))
	Snapshot() []byte
	Restore(state []byte) error
	StateSize() int
}

// SnapshotRecycler is the optional buffer-reuse capability of a Logic. The
// subjob runtime calls RecycleSnapshot on the capturing goroutine, with the
// PE paused, immediately before Snapshot or, for a DeltaLogic, before
// DeltaSnapshot: buf is the result of an earlier Snapshot or DeltaSnapshot
// that nobody references any more (its checkpoint has been encoded), and
// the logic may return it from that next capture instead of allocating.
// Snapshot and DeltaSnapshot stay the capture calls, so a wrapper that
// overrides them still sees every capture.
type SnapshotRecycler interface {
	RecycleSnapshot(buf []byte)
}

// counterPage is the change-tracking granularity of CounterLogic's pad:
// one dirty bit covers this many pad bytes, so a delta ships whole pages.
const counterPage = 256

// CounterLogic is the synthetic stateful PE used throughout the paper's
// evaluation: selectivity 1, an internal state of configurable size, and a
// running counter that makes state divergence detectable in tests.
//
// The pad is real, keyed state: when HotSlots is set, every processed
// element rewrites one 8-byte slot of the pad (slot = count mod HotSlots),
// making state churn tunable. CounterLogic implements DeltaLogic by
// tracking dirty pad pages, so an incremental checkpoint ships the 16-byte
// counter head plus only the touched pages instead of the whole pad.
type CounterLogic struct {
	// Pad is the internal state size in element-equivalents (the paper sets
	// it to 200 for the overhead experiments).
	Pad int
	// HotSlots bounds the working set of the keyed pad state: each processed
	// element updates slot count%HotSlots. Zero leaves the pad untouched
	// (the seed behavior: pure transfer-cost ballast).
	HotSlots int

	count uint64
	sum   int64

	// pad is the keyed state, allocated lazily at Pad*element.EncodedSize
	// bytes (or adopted from Restore). nil means an all-zero pad.
	pad []byte
	// dirty is a bitmap with one bit per counterPage-sized pad page, set on
	// write and cleared by DeltaSnapshot/ResetDelta.
	dirty []uint64
	// headDirty records a count/sum change since the last capture.
	headDirty bool
	// baseline reports whether the change tracking is aligned with a full
	// snapshot some consumer holds; false after construction or Restore.
	baseline bool
	// spare is a dead earlier snapshot or patch the next Snapshot or
	// DeltaSnapshot may fill.
	spare []byte
}

var (
	_ Logic            = (*CounterLogic)(nil)
	_ DeltaLogic       = (*CounterLogic)(nil)
	_ PartialLogic     = (*CounterLogic)(nil)
	_ SnapshotRecycler = (*CounterLogic)(nil)
)

func (l *CounterLogic) padLen() int {
	if l.pad != nil {
		return len(l.pad)
	}
	return l.Pad * element.EncodedSize
}

func (l *CounterLogic) ensurePad() {
	if l.pad == nil {
		l.pad = make([]byte, l.Pad*element.EncodedSize)
	}
	if pages := (len(l.pad) + counterPage - 1) / counterPage; len(l.dirty) < (pages+63)/64 {
		l.dirty = make([]uint64, (pages+63)/64)
	}
}

func (l *CounterLogic) markPage(off int) {
	page := off / counterPage
	l.dirty[page/64] |= 1 << (page % 64)
}

// Process implements Logic with selectivity 1: each input yields one
// output whose payload is transformed deterministically.
func (l *CounterLogic) Process(e element.Element, emit func(element.Element)) {
	l.count++
	l.sum += e.Payload
	l.headDirty = true
	if l.HotSlots > 0 {
		l.ensurePad()
		if slots := len(l.pad) / 8; slots > 0 {
			n := l.HotSlots
			if n > slots {
				n = slots
			}
			off := int(l.count%uint64(n)) * 8
			binary.BigEndian.PutUint64(l.pad[off:off+8], l.count)
			l.markPage(off)
		}
	}
	emit(element.Element{
		ID:      element.DeriveID(e.ID, 0),
		Key:     e.Key,
		Origin:  e.Origin,
		Payload: e.Payload + 1,
	})
}

// Snapshot implements Logic. It does not disturb delta tracking, so
// recovery-path snapshots never invalidate an in-flight delta chain.
func (l *CounterLogic) Snapshot() []byte {
	n := 16 + l.padLen()
	buf := l.spare
	l.spare = nil
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.BigEndian.PutUint64(buf[0:8], l.count)
	binary.BigEndian.PutUint64(buf[8:16], uint64(l.sum))
	// The pad stands in for application state of the configured size; until
	// HotSlots writes to it, its content is all zeros and only its transfer
	// cost matters, exactly as in the original synthetic workload.
	if l.pad != nil {
		copy(buf[16:], l.pad)
	} else {
		clearBytes(buf[16:])
	}
	return buf
}

// RecycleSnapshot implements SnapshotRecycler.
func (l *CounterLogic) RecycleSnapshot(buf []byte) { l.spare = buf }

// Restore implements Logic. The restored logic has no delta baseline until
// the next ResetDelta: its first checkpoint after recovery must be full.
func (l *CounterLogic) Restore(state []byte) error {
	if len(state) < 16 {
		return fmt.Errorf("pe: counter snapshot too short: %d bytes", len(state))
	}
	l.count = binary.BigEndian.Uint64(state[0:8])
	l.sum = int64(binary.BigEndian.Uint64(state[8:16]))
	l.pad = append(l.pad[:0], state[16:]...)
	l.dirty = nil
	l.headDirty = false
	l.baseline = false
	return nil
}

// StateSize implements Logic.
func (l *CounterLogic) StateSize() int { return l.Pad }

// DeltaSnapshot implements DeltaLogic: the patch carries the counter head
// if it changed plus every dirty pad page, then clears the tracking. Like
// Snapshot it fills the recycled buffer when that has room.
func (l *CounterLogic) DeltaSnapshot() ([]byte, bool) {
	if !l.baseline {
		return nil, false
	}
	chunks := 0
	if l.headDirty {
		chunks++
	}
	padLen := l.padLen()
	pages := (padLen + counterPage - 1) / counterPage
	for p := 0; p < pages; p++ {
		if p/64 < len(l.dirty) && l.dirty[p/64]&(1<<(p%64)) != 0 {
			chunks++
		}
	}
	patch := l.spare[:0]
	l.spare = nil
	if need := 32 + chunks*(counterPage+8); cap(patch) < need {
		patch = make([]byte, 0, need)
	}
	patch = AppendPatchHeader(patch, 16+padLen, chunks)
	if l.headDirty {
		var head [16]byte
		binary.BigEndian.PutUint64(head[0:8], l.count)
		binary.BigEndian.PutUint64(head[8:16], uint64(l.sum))
		patch = AppendPatchChunk(patch, 0, head[:])
		l.headDirty = false
	}
	for p := 0; p < pages; p++ {
		if p/64 >= len(l.dirty) || l.dirty[p/64]&(1<<(p%64)) == 0 {
			continue
		}
		start := p * counterPage
		end := start + counterPage
		if end > padLen {
			end = padLen
		}
		patch = AppendPatchChunk(patch, 16+start, l.pad[start:end])
	}
	for i := range l.dirty {
		l.dirty[i] = 0
	}
	return patch, true
}

// ApplyDelta implements DeltaLogic, folding a patch into the live state.
func (l *CounterLogic) ApplyDelta(patch []byte) error {
	return walkPatch(patch,
		func(finalLen int) error {
			if finalLen < 16 {
				return fmt.Errorf("pe: counter delta final length %d too short", finalLen)
			}
			if want := finalLen - 16; want != len(l.pad) {
				if want <= cap(l.pad) {
					grown := l.pad[:want]
					for i := len(l.pad); i < want; i++ {
						grown[i] = 0
					}
					l.pad = grown
				} else {
					grown := make([]byte, want)
					copy(grown, l.pad)
					l.pad = grown
				}
			}
			return nil
		},
		func(off int, b []byte) error {
			if off < 16 {
				// Chunk covers (part of) the counter head: fold through a
				// scratch image so partial overlaps stay correct.
				var head [16]byte
				binary.BigEndian.PutUint64(head[0:8], l.count)
				binary.BigEndian.PutUint64(head[8:16], uint64(l.sum))
				n := copy(head[off:], b)
				l.count = binary.BigEndian.Uint64(head[0:8])
				l.sum = int64(binary.BigEndian.Uint64(head[8:16]))
				b = b[n:]
				off = 16
				if len(b) == 0 {
					return nil
				}
			}
			copy(l.pad[off-16:], b)
			return nil
		})
}

// ResetDelta implements DeltaLogic: the caller captured a full Snapshot and
// future deltas are relative to it.
func (l *CounterLogic) ResetDelta() {
	for i := range l.dirty {
		l.dirty[i] = 0
	}
	l.headDirty = false
	l.baseline = true
}

// StateBytes implements PartialLogic: the 16-byte counter head plus the
// keyed pad.
func (l *CounterLogic) StateBytes() int { return 16 + l.padLen() }

// Count returns the number of elements processed, for tests.
func (l *CounterLogic) Count() uint64 { return l.count }

// FilterLogic drops elements whose payload is divisible by Modulus
// (selectivity below one). Stateless.
type FilterLogic struct {
	// Modulus selects which elements are dropped; must be at least 2.
	Modulus int64
}

var _ Logic = (*FilterLogic)(nil)

// Process implements Logic.
func (l *FilterLogic) Process(e element.Element, emit func(element.Element)) {
	if l.Modulus >= 2 && e.Payload%l.Modulus == 0 {
		return
	}
	emit(element.Element{ID: element.DeriveID(e.ID, 0), Key: e.Key, Origin: e.Origin, Payload: e.Payload})
}

// Snapshot implements Logic.
func (l *FilterLogic) Snapshot() []byte { return nil }

// Restore implements Logic.
func (l *FilterLogic) Restore([]byte) error { return nil }

// StateSize implements Logic.
func (l *FilterLogic) StateSize() int { return 0 }

// SplitLogic emits Fanout outputs per input (selectivity above one),
// deterministically derived from the input. Stateless.
type SplitLogic struct {
	// Fanout is the number of outputs per input; values below 1 behave as 1.
	Fanout int
}

var _ Logic = (*SplitLogic)(nil)

// Process implements Logic.
func (l *SplitLogic) Process(e element.Element, emit func(element.Element)) {
	n := l.Fanout
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		emit(element.Element{
			ID:      element.DeriveID(e.ID, i),
			Key:     e.Key,
			Origin:  e.Origin,
			Payload: e.Payload*int64(n) + int64(i),
		})
	}
}

// Snapshot implements Logic.
func (l *SplitLogic) Snapshot() []byte { return nil }

// Restore implements Logic.
func (l *SplitLogic) Restore([]byte) error { return nil }

// StateSize implements Logic.
func (l *SplitLogic) StateSize() int { return 0 }

// WindowSumLogic aggregates tumbling windows of Window inputs into one
// output carrying their payload sum — a typical stateful analytic PE.
type WindowSumLogic struct {
	// Window is the tumbling window size in elements; values below 1 behave
	// as 1.
	Window int

	filled int
	acc    int64
	lastID uint64
}

var (
	_ Logic        = (*WindowSumLogic)(nil)
	_ DeltaLogic   = (*WindowSumLogic)(nil)
	_ PartialLogic = (*WindowSumLogic)(nil)
)

// Process implements Logic.
func (l *WindowSumLogic) Process(e element.Element, emit func(element.Element)) {
	w := l.Window
	if w < 1 {
		w = 1
	}
	l.acc += e.Payload
	l.filled++
	l.lastID = e.ID
	if l.filled < w {
		return
	}
	out := element.Element{ID: element.DeriveID(l.lastID, 0), Key: e.Key, Origin: e.Origin, Payload: l.acc}
	l.filled = 0
	l.acc = 0
	emit(out)
}

// Snapshot implements Logic.
func (l *WindowSumLogic) Snapshot() []byte {
	buf := make([]byte, 24)
	binary.BigEndian.PutUint64(buf[0:8], uint64(l.filled))
	binary.BigEndian.PutUint64(buf[8:16], uint64(l.acc))
	binary.BigEndian.PutUint64(buf[16:24], l.lastID)
	return buf
}

// Restore implements Logic.
func (l *WindowSumLogic) Restore(state []byte) error {
	if len(state) < 24 {
		return fmt.Errorf("pe: window snapshot too short: %d bytes", len(state))
	}
	l.filled = int(binary.BigEndian.Uint64(state[0:8]))
	l.acc = int64(binary.BigEndian.Uint64(state[8:16]))
	l.lastID = binary.BigEndian.Uint64(state[16:24])
	return nil
}

// StateSize implements Logic.
func (l *WindowSumLogic) StateSize() int { return 1 }

// DeltaSnapshot implements DeltaLogic. The versioned window state is only
// 24 bytes, so the delta is simply a whole-state replace chunk; it needs no
// baseline and is valid even right after a Restore.
func (l *WindowSumLogic) DeltaSnapshot() ([]byte, bool) {
	patch := AppendPatchHeader(make([]byte, 0, 32), 24, 1)
	return AppendPatchChunk(patch, 0, l.Snapshot()), true
}

// ApplyDelta implements DeltaLogic.
func (l *WindowSumLogic) ApplyDelta(patch []byte) error {
	full, err := ApplyPatch(l.Snapshot(), patch)
	if err != nil {
		return err
	}
	return l.Restore(full)
}

// ResetDelta implements DeltaLogic (no tracking to align).
func (l *WindowSumLogic) ResetDelta() {}

// StateBytes implements PartialLogic: every delta re-ships the whole
// 24-byte window state, so a partial frame leaves no cold remainder.
func (l *WindowSumLogic) StateBytes() int { return 24 }
