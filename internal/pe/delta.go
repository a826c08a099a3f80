package pe

import (
	"encoding/binary"
	"fmt"

	"streamha/internal/element"
)

// DeltaLogic is the optional incremental-checkpoint capability of a Logic.
// A Logic that implements it can describe only the state bytes that changed
// since the previous capture, letting the checkpoint manager ship a small
// patch instead of a full snapshot on most sweeps.
//
// The contract mirrors Snapshot/Restore but is stateful across calls:
//
//   - DeltaSnapshot returns a patch (see AppendPatch/ApplyPatch for the
//     encoding) covering every byte of the full snapshot that may have
//     changed since the last successful DeltaSnapshot or ResetDelta, and
//     clears the change tracking. It returns ok=false when no valid
//     baseline exists — e.g. right after construction or after Restore —
//     in which case the caller must fall back to a full Snapshot.
//   - ResetDelta aligns the change tracking with a full Snapshot the caller
//     has just captured: the next DeltaSnapshot describes changes relative
//     to that snapshot, and becomes valid even after a Restore.
//   - ApplyDelta folds a patch produced by DeltaSnapshot into the live
//     state, the standby-side counterpart of Restore.
//
// Plain Snapshot() must not disturb the tracking: recovery paths (rollback
// state read-back, read-state replies) snapshot at arbitrary times, and a
// later delta that re-ships bytes already covered by such a snapshot is
// harmless, while a delta that omits changes would corrupt the folded image.
type DeltaLogic interface {
	Logic
	DeltaSnapshot() ([]byte, bool)
	ApplyDelta(patch []byte) error
	ResetDelta()
}

// PartialLogic is the optional bounded-error capability of a DeltaLogic.
// The approx standby policy ships DeltaSnapshot patches as unchained
// partial checkpoints: each frame carries only the hot (recently written)
// byte ranges, and a standby that misses a frame simply keeps stale cold
// bytes instead of breaking a chain. StateBytes reports the current full
// snapshot length so the policy can account the cold remainder — the
// bytes a partial frame did NOT cover — against the error budget.
type PartialLogic interface {
	DeltaLogic
	StateBytes() int
}

// Patch encoding: a compact byte-range diff against a full snapshot.
//
//	uvarint finalLen   — length of the full snapshot after applying
//	uvarint n          — number of chunks
//	n × (uvarint off, uvarint len, len raw bytes)
//
// Chunks are non-overlapping and sorted by offset. The store side folds a
// patch into an opaque stored snapshot with ApplyPatch, without needing a
// Logic instance.

// AppendPatchHeader begins a patch with the final snapshot length and the
// number of chunks that follow.
func AppendPatchHeader(dst []byte, finalLen, chunks int) []byte {
	dst = binary.AppendUvarint(dst, uint64(finalLen))
	return binary.AppendUvarint(dst, uint64(chunks))
}

// AppendPatchChunk appends one (offset, bytes) chunk to a patch under
// construction. Chunks must be appended in increasing offset order.
func AppendPatchChunk(dst []byte, off int, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(off))
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// walkPatch decodes a patch, calling size once with the final snapshot
// length and then chunk for each (offset, bytes) range in order. The bytes
// slice aliases the patch and must not be retained.
func walkPatch(patch []byte, size func(finalLen int) error, chunk func(off int, b []byte) error) error {
	finalLen, n := binary.Uvarint(patch)
	if n <= 0 {
		return fmt.Errorf("pe: patch truncated at final length")
	}
	rest := patch[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("pe: patch truncated at chunk count")
	}
	rest = rest[n:]
	if size != nil {
		if err := size(int(finalLen)); err != nil {
			return err
		}
	}
	prevEnd := -1
	for i := uint64(0); i < count; i++ {
		off, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("pe: patch truncated at chunk %d offset", i)
		}
		rest = rest[n:]
		ln, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("pe: patch truncated at chunk %d length", i)
		}
		rest = rest[n:]
		if uint64(len(rest)) < ln {
			return fmt.Errorf("pe: patch chunk %d wants %d bytes, %d left", i, ln, len(rest))
		}
		if int(off) <= prevEnd {
			return fmt.Errorf("pe: patch chunk %d offset %d overlaps previous end %d", i, off, prevEnd)
		}
		if off+ln > finalLen {
			return fmt.Errorf("pe: patch chunk %d [%d,%d) exceeds final length %d", i, off, off+ln, finalLen)
		}
		if err := chunk(int(off), rest[:ln]); err != nil {
			return err
		}
		prevEnd = int(off+ln) - 1
		rest = rest[ln:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("pe: %d trailing bytes after patch", len(rest))
	}
	return nil
}

// ApplyPatch folds a patch into a full snapshot image and returns the
// updated image. The base slice is reused when its capacity allows;
// otherwise a new slice is allocated and the base contents carried over.
func ApplyPatch(base, patch []byte) ([]byte, error) {
	out := base
	err := walkPatch(patch,
		func(finalLen int) error {
			switch {
			case finalLen <= len(out):
				out = out[:finalLen]
			case finalLen <= cap(out):
				grown := out[:finalLen]
				clearBytes(grown[len(out):])
				out = grown
			default:
				grown := make([]byte, finalLen)
				copy(grown, out)
				out = grown
			}
			return nil
		},
		func(off int, b []byte) error {
			copy(out[off:], b)
			return nil
		})
	if err != nil {
		return base, err
	}
	return out, nil
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// PatchUnits converts a patch's shipped size into data-element
// equivalents, the accounting unit of the paper's overhead figures, by the
// same convention StateSize uses for full snapshots (one unit per encoded
// element's worth of bytes, rounded up).
func PatchUnits(patch []byte) int {
	return (len(patch) + element.EncodedSize - 1) / element.EncodedSize
}
