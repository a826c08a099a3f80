// Binary snapshot codec: the checkpoint-path counterpart of the transport
// package's wire codec. Snapshots and deltas are serialized in a single
// append pass into a buffer pre-sized by an exact length computation, so a
// checkpoint's encoded payload is its one allocation. Decoding aliases:
// every decoded PE state or patch is a capacity-clipped sub-slice of the
// payload, which must therefore stay unmodified for as long as the decoded
// value is in use (Snapshot.ApplyDelta copies a PE state before it first
// patches it in place).
//
// Layout (all integers LEB128 uvarints unless noted):
//
//	full snapshot   "SHS2" version subjobID consumed peStates pipes input output stateUnits
//	delta           "SHD2" version subjobID prevSeq consumed? peEntries pipeEntries input? output? stateUnits
//
// where strings and byte slices are length-prefixed, element batches are a
// count followed by the element package's fixed-width encoding, consumed
// maps are sorted by key for deterministic output, and the optional delta
// sections carry a leading presence/kind byte. The legacy gob encoding has
// no magic preamble and remains decodable (see DecodeSnapshot), keeping
// old checkpoint producers interoperable.
package subjob

import (
	"encoding/binary"
	"fmt"
	"sort"

	"streamha/internal/element"
	"streamha/internal/queue"
)

const (
	snapMagic    = "SHS2"
	deltaMagic   = "SHD2"
	codecVersion = 1
)

const (
	peAbsent = 0
	peDelta  = 1
	peFull   = 2
)

func hasMagic(b []byte, magic string) bool {
	return len(b) >= 4 && string(b[:4]) == magic
}

// IsDelta reports whether an encoded checkpoint payload is a delta.
func IsDelta(b []byte) bool { return hasMagic(b, deltaMagic) }

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func sizeBytes(b []byte) int  { return uvarintLen(uint64(len(b))) + len(b) }
func sizeString(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
func sizeElems(n int) int     { return uvarintLen(uint64(n)) + n*element.EncodedSize }

func sizeConsumed(m map[string]uint64) int {
	n := uvarintLen(uint64(len(m)))
	for k, v := range m {
		n += sizeString(k) + uvarintLen(v)
	}
	return n
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendElems(dst []byte, elems []element.Element) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(elems)))
	return element.AppendBatch(dst, elems)
}

func appendConsumed(dst []byte, m map[string]uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	if len(m) == 0 {
		return dst
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = binary.AppendUvarint(dst, m[k])
	}
	return dst
}

// EncodedSize returns the exact byte length of the snapshot's binary
// encoding, letting callers size the destination buffer for a single
// allocation-free append pass.
func (s *Snapshot) EncodedSize() int {
	n := 4 + 1 + sizeString(s.SubjobID) + sizeConsumed(s.Consumed)
	n += uvarintLen(uint64(len(s.PEStates)))
	for _, st := range s.PEStates {
		n += sizeBytes(st)
	}
	n += uvarintLen(uint64(len(s.Pipes)))
	for _, p := range s.Pipes {
		n += sizeElems(len(p))
	}
	n += uvarintLen(uint64(len(s.Input)))
	for _, in := range s.Input {
		n += sizeString(in.Stream) + element.EncodedSize
	}
	n += sizeString(s.Output.StreamID) + uvarintLen(s.Output.Floor) + uvarintLen(s.Output.NextSeq)
	n += sizeElems(len(s.Output.Buf))
	n += uvarintLen(uint64(s.StateUnits))
	return n
}

// AppendTo appends the snapshot's binary encoding to dst and returns the
// extended slice. With dst's capacity at EncodedSize or more the encode
// allocates nothing.
func (s *Snapshot) AppendTo(dst []byte) []byte {
	dst = append(dst, snapMagic...)
	dst = append(dst, codecVersion)
	dst = appendString(dst, s.SubjobID)
	dst = appendConsumed(dst, s.Consumed)
	dst = binary.AppendUvarint(dst, uint64(len(s.PEStates)))
	for _, st := range s.PEStates {
		dst = appendBytes(dst, st)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Pipes)))
	for _, p := range s.Pipes {
		dst = appendElems(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Input)))
	for _, in := range s.Input {
		dst = appendString(dst, in.Stream)
		dst = in.Elem.AppendEncode(dst)
	}
	dst = appendString(dst, s.Output.StreamID)
	dst = binary.AppendUvarint(dst, s.Output.Floor)
	dst = binary.AppendUvarint(dst, s.Output.NextSeq)
	dst = appendElems(dst, s.Output.Buf)
	return binary.AppendUvarint(dst, uint64(s.StateUnits))
}

// EncodedSize returns the exact byte length of the delta's binary encoding.
func (d *Delta) EncodedSize() int {
	n := 4 + 1 + sizeString(d.SubjobID) + uvarintLen(d.PrevSeq)
	n++ // consumed presence flag
	if d.Consumed != nil {
		n += sizeConsumed(d.Consumed)
	}
	n += uvarintLen(uint64(len(d.PEDeltas)))
	for i := range d.PEDeltas {
		n++ // kind byte
		switch {
		case d.PEFull[i] != nil:
			n += sizeBytes(d.PEFull[i])
		case d.PEDeltas[i] != nil:
			n += sizeBytes(d.PEDeltas[i])
		}
	}
	n += uvarintLen(uint64(len(d.Pipes)))
	for i, p := range d.Pipes {
		n++ // presence byte
		if d.PipeSet[i] {
			n += sizeElems(len(p))
		}
	}
	n++ // input presence flag
	if d.HasInput {
		n += uvarintLen(uint64(len(d.Input)))
		for _, in := range d.Input {
			n += sizeString(in.Stream) + element.EncodedSize
		}
	}
	n++ // output presence flag
	if d.HasOutput {
		n += sizeString(d.Output.StreamID) + uvarintLen(d.Output.Floor) +
			uvarintLen(d.Output.NextSeq) + uvarintLen(d.Output.FromSeq) + sizeElems(len(d.Output.New))
	}
	return n + uvarintLen(uint64(d.StateUnits))
}

// AppendTo appends the delta's binary encoding to dst and returns the
// extended slice.
func (d *Delta) AppendTo(dst []byte) []byte {
	dst = append(dst, deltaMagic...)
	dst = append(dst, codecVersion)
	dst = appendString(dst, d.SubjobID)
	dst = binary.AppendUvarint(dst, d.PrevSeq)
	if d.Consumed != nil {
		dst = append(dst, 1)
		dst = appendConsumed(dst, d.Consumed)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.PEDeltas)))
	for i := range d.PEDeltas {
		switch {
		case d.PEFull[i] != nil:
			dst = append(dst, peFull)
			dst = appendBytes(dst, d.PEFull[i])
		case d.PEDeltas[i] != nil:
			dst = append(dst, peDelta)
			dst = appendBytes(dst, d.PEDeltas[i])
		default:
			dst = append(dst, peAbsent)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Pipes)))
	for i, p := range d.Pipes {
		if d.PipeSet[i] {
			dst = append(dst, 1)
			dst = appendElems(dst, p)
		} else {
			dst = append(dst, 0)
		}
	}
	if d.HasInput {
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(d.Input)))
		for _, in := range d.Input {
			dst = appendString(dst, in.Stream)
			dst = in.Elem.AppendEncode(dst)
		}
	} else {
		dst = append(dst, 0)
	}
	if d.HasOutput {
		dst = append(dst, 1)
		dst = appendString(dst, d.Output.StreamID)
		dst = binary.AppendUvarint(dst, d.Output.Floor)
		dst = binary.AppendUvarint(dst, d.Output.NextSeq)
		dst = binary.AppendUvarint(dst, d.Output.FromSeq)
		dst = appendElems(dst, d.Output.New)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(d.StateUnits))
}

// Encode serializes the delta; the returned slice is freshly allocated at
// its exact size and owned by the caller.
func (d *Delta) Encode() ([]byte, error) {
	return d.AppendTo(make([]byte, 0, d.EncodedSize())), nil
}

// creader is a sticky-error cursor over an encoded checkpoint, in the
// style of the transport codec's payload reader: after the first framing
// error every subsequent read is a no-op and the error surfaces once.
type creader struct {
	b   []byte
	err error
}

func (r *creader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("subjob: "+format, args...)
	}
}

func (r *creader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *creader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated flag byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *creader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("field wants %d bytes, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *creader) str() string { return string(r.take(r.uvarint())) }

// bytes returns a length-prefixed field as a sub-slice of the payload,
// its capacity clipped so that growing it can never write into the bytes
// that follow.
func (r *creader) bytes() []byte {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	b := r.take(n)
	return b[:len(b):len(b)]
}

func (r *creader) consumed() map[string]uint64 {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.str()
		m[k] = r.uvarint()
	}
	return m
}

func (r *creader) elems() []element.Element {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	out, rest, err := element.DecodeBatch(nil, r.b, int(n))
	if err != nil {
		r.fail("element batch: %v", err)
		return nil
	}
	r.b = rest
	return out
}

func (r *creader) input() []queue.In {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]queue.In, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		stream := r.str()
		raw := r.take(element.EncodedSize)
		if r.err != nil {
			break
		}
		e, err := element.Decode(raw)
		if err != nil {
			r.fail("input element: %v", err)
			break
		}
		out = append(out, queue.In{Stream: stream, Elem: e})
	}
	return out
}

func (r *creader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("subjob: %d trailing bytes after %s", len(r.b), what)
	}
	return nil
}

func decodeSnapshotBinary(b []byte) (*Snapshot, error) {
	r := &creader{b: b[4:]}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return nil, fmt.Errorf("subjob: unknown snapshot codec version %d", v)
	}
	s := &Snapshot{}
	s.SubjobID = r.str()
	s.Consumed = r.consumed()
	if n := r.uvarint(); n > 0 && r.err == nil {
		s.PEStates = make([][]byte, n)
		for i := range s.PEStates {
			s.PEStates[i] = r.bytes()
		}
	}
	if n := r.uvarint(); n > 0 && r.err == nil {
		s.Pipes = make([][]element.Element, n)
		for i := range s.Pipes {
			s.Pipes[i] = r.elems()
		}
	}
	s.Input = r.input()
	s.Output.StreamID = r.str()
	s.Output.Floor = r.uvarint()
	s.Output.NextSeq = r.uvarint()
	s.Output.Buf = r.elems()
	s.StateUnits = int(r.uvarint())
	if err := r.done("snapshot"); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeDelta parses an encoded delta checkpoint.
func DecodeDelta(b []byte) (*Delta, error) {
	if !hasMagic(b, deltaMagic) {
		return nil, fmt.Errorf("subjob: not a delta checkpoint")
	}
	r := &creader{b: b[4:]}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return nil, fmt.Errorf("subjob: unknown delta codec version %d", v)
	}
	d := &Delta{}
	d.SubjobID = r.str()
	d.PrevSeq = r.uvarint()
	if r.byte() == 1 {
		d.Consumed = r.consumed()
		if d.Consumed == nil && r.err == nil {
			d.Consumed = map[string]uint64{}
		}
	}
	nPE := r.uvarint()
	if r.err == nil {
		d.PEDeltas = make([][]byte, nPE)
		d.PEFull = make([][]byte, nPE)
		for i := uint64(0); i < nPE && r.err == nil; i++ {
			switch kind := r.byte(); kind {
			case peAbsent:
			case peDelta:
				d.PEDeltas[i] = r.bytes()
			case peFull:
				b := r.bytes()
				if b == nil {
					b = []byte{}
				}
				d.PEFull[i] = b
			default:
				r.fail("unknown PE entry kind %d", kind)
			}
		}
	}
	nPipes := r.uvarint()
	if r.err == nil {
		d.Pipes = make([][]element.Element, nPipes)
		d.PipeSet = make([]bool, nPipes)
		for i := uint64(0); i < nPipes && r.err == nil; i++ {
			if r.byte() == 1 {
				d.PipeSet[i] = true
				d.Pipes[i] = r.elems()
			}
		}
	}
	if r.byte() == 1 {
		d.HasInput = true
		d.Input = r.input()
	}
	if r.byte() == 1 {
		d.HasOutput = true
		d.Output.StreamID = r.str()
		d.Output.Floor = r.uvarint()
		d.Output.NextSeq = r.uvarint()
		d.Output.FromSeq = r.uvarint()
		d.Output.New = r.elems()
	}
	d.StateUnits = int(r.uvarint())
	if err := r.done("delta"); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeCheckpoint parses an encoded checkpoint payload of either kind:
// exactly one of the returned snapshot and delta is non-nil on success.
// Partial (bounded-error) frames are not valid here: they never enter the
// store fold or the durable catalog, so reaching one is a routing bug.
func DecodeCheckpoint(b []byte) (*Snapshot, *Delta, error) {
	if IsPartial(b) {
		return nil, nil, fmt.Errorf("subjob: partial checkpoint where full/delta expected (partial frames are not foldable)")
	}
	if IsDelta(b) {
		d, err := DecodeDelta(b)
		return nil, d, err
	}
	s, err := DecodeSnapshot(b)
	return s, nil, err
}

// CheckpointInfo describes an encoded checkpoint payload: enough to index
// and chain it without decoding the state sections.
type CheckpointInfo struct {
	SubjobID string
	IsDelta  bool
	// IsPartial marks a bounded-error frame (SHP2); such payloads are
	// transport-only and never stored.
	IsPartial bool
	// PrevSeq is the chain predecessor; meaningful only for deltas.
	PrevSeq uint64
}

// PeekCheckpoint reads a checkpoint payload's header — subjob identity,
// kind, and (for deltas) the chain predecessor. Binary payloads cost only
// a few header bytes; legacy gob payloads fall back to a full decode.
func PeekCheckpoint(b []byte) (CheckpointInfo, error) {
	switch {
	case hasMagic(b, snapMagic):
		r := &creader{b: b[4:]}
		if v := r.byte(); r.err == nil && v != codecVersion {
			return CheckpointInfo{}, fmt.Errorf("subjob: unknown snapshot codec version %d", v)
		}
		id := r.str()
		if r.err != nil {
			return CheckpointInfo{}, r.err
		}
		return CheckpointInfo{SubjobID: id}, nil
	case hasMagic(b, deltaMagic):
		r := &creader{b: b[4:]}
		if v := r.byte(); r.err == nil && v != codecVersion {
			return CheckpointInfo{}, fmt.Errorf("subjob: unknown delta codec version %d", v)
		}
		id := r.str()
		prev := r.uvarint()
		if r.err != nil {
			return CheckpointInfo{}, r.err
		}
		return CheckpointInfo{SubjobID: id, IsDelta: true, PrevSeq: prev}, nil
	case hasMagic(b, partialMagic):
		r := &creader{b: b[4:]}
		if v := r.byte(); r.err == nil && v != codecVersion {
			return CheckpointInfo{}, fmt.Errorf("subjob: unknown partial codec version %d", v)
		}
		id := r.str()
		if r.err != nil {
			return CheckpointInfo{}, r.err
		}
		return CheckpointInfo{SubjobID: id, IsPartial: true}, nil
	default:
		snap, delta, err := DecodeCheckpoint(b)
		if err != nil {
			return CheckpointInfo{}, err
		}
		if delta != nil {
			return CheckpointInfo{SubjobID: delta.SubjobID, IsDelta: true, PrevSeq: delta.PrevSeq}, nil
		}
		return CheckpointInfo{SubjobID: snap.SubjobID}, nil
	}
}
