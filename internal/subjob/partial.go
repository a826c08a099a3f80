package subjob

import (
	"encoding/binary"
	"fmt"
)

// partialMagic frames a partial (bounded-error) checkpoint, the third
// checkpoint kind next to full snapshots ("SHS2") and chained deltas
// ("SHD2").
const partialMagic = "SHP2"

// Partial is a bounded-error checkpoint: only the hot byte ranges of each
// PE's state (the pages its dirty tracking saw change since the previous
// capture) plus the consumption and output positions needed to promote
// from it. Unlike a Delta it is deliberately UNCHAINED — there is no
// PrevSeq, and a standby that misses a frame keeps stale cold bytes
// instead of breaking a chain. That staleness is the quantified error the
// approx policy accounts against its budget; ColdBytes reports how much
// of the full state a frame did not cover.
type Partial struct {
	SubjobID string
	// Consumed is the first PE's consumption positions at capture time;
	// the promoted standby acks upstreams from here.
	Consumed map[string]uint64
	// PEPatches[i] is PE i's hot-range patch (pe patch encoding); nil when
	// the PE shipped in full instead or had nothing to ship.
	PEPatches [][]byte
	// PEFull[i] is PE i's full state, the fallback when the logic has no
	// delta baseline (or is not a DeltaLogic at all).
	PEFull [][]byte
	// OutNext is the primary's output NextSeq at capture time. On promote
	// the standby fast-forwards its (empty) output queue here so the seqs
	// it assigns to regenerated elements line up with what downstream
	// consumers already acknowledged.
	OutNext uint64
	// ColdBytes is the portion of the full PE state, in bytes, that this
	// frame did not ship — the upper bound on state staleness it can leave
	// behind on the standby.
	ColdBytes uint64
	// StateUnits is the shipped size in element-equivalents.
	StateUnits int
}

// ElementUnits returns the partial's shipped size in data-element
// equivalents, the accounting unit of the paper's overhead figures.
func (p *Partial) ElementUnits() int { return p.StateUnits }

// IsPartial reports whether an encoded checkpoint payload is a partial
// frame.
func IsPartial(b []byte) bool { return hasMagic(b, partialMagic) }

// EncodedSize returns the exact byte length of the partial's binary
// encoding.
func (p *Partial) EncodedSize() int {
	n := 4 + 1 + sizeString(p.SubjobID) + sizeConsumed(p.Consumed)
	n += uvarintLen(p.OutNext) + uvarintLen(p.ColdBytes)
	n += uvarintLen(uint64(len(p.PEPatches)))
	for i := range p.PEPatches {
		n++ // kind byte
		switch {
		case p.PEFull[i] != nil:
			n += sizeBytes(p.PEFull[i])
		case p.PEPatches[i] != nil:
			n += sizeBytes(p.PEPatches[i])
		}
	}
	return n + uvarintLen(uint64(p.StateUnits))
}

// AppendTo appends the partial's binary encoding to dst and returns the
// extended slice. With dst's capacity at EncodedSize or more the encode
// allocates nothing.
func (p *Partial) AppendTo(dst []byte) []byte {
	dst = append(dst, partialMagic...)
	dst = append(dst, codecVersion)
	dst = appendString(dst, p.SubjobID)
	dst = appendConsumed(dst, p.Consumed)
	dst = binary.AppendUvarint(dst, p.OutNext)
	dst = binary.AppendUvarint(dst, p.ColdBytes)
	dst = binary.AppendUvarint(dst, uint64(len(p.PEPatches)))
	for i := range p.PEPatches {
		switch {
		case p.PEFull[i] != nil:
			dst = append(dst, peFull)
			dst = appendBytes(dst, p.PEFull[i])
		case p.PEPatches[i] != nil:
			dst = append(dst, peDelta)
			dst = appendBytes(dst, p.PEPatches[i])
		default:
			dst = append(dst, peAbsent)
		}
	}
	return binary.AppendUvarint(dst, uint64(p.StateUnits))
}

// Encode serializes the partial; the returned slice is freshly allocated
// at its exact size and owned by the caller.
func (p *Partial) Encode() ([]byte, error) {
	return p.AppendTo(make([]byte, 0, p.EncodedSize())), nil
}

// DecodePartial parses an encoded partial checkpoint.
func DecodePartial(b []byte) (*Partial, error) {
	if !hasMagic(b, partialMagic) {
		return nil, fmt.Errorf("subjob: not a partial checkpoint")
	}
	r := &creader{b: b[4:]}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return nil, fmt.Errorf("subjob: unknown partial codec version %d", v)
	}
	p := &Partial{}
	p.SubjobID = r.str("")
	p.Consumed = r.consumed(false)
	p.OutNext = r.uvarint()
	p.ColdBytes = r.uvarint()
	nPE := r.uvarint()
	if r.err == nil {
		p.PEPatches = make([][]byte, nPE)
		p.PEFull = make([][]byte, nPE)
		for i := uint64(0); i < nPE && r.err == nil; i++ {
			switch kind := r.byte(); kind {
			case peAbsent:
			case peDelta:
				p.PEPatches[i] = r.bytes()
			case peFull:
				b := r.bytes()
				if b == nil {
					b = []byte{}
				}
				p.PEFull[i] = b
			default:
				r.fail("unknown PE entry kind %d", kind)
			}
		}
	}
	p.StateUnits = int(r.uvarint())
	if err := r.done("partial"); err != nil {
		return nil, err
	}
	return p, nil
}
