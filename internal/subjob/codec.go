// Binary snapshot codec: the checkpoint-path counterpart of the transport
// package's wire codec. Snapshots and deltas are serialized in a single
// append pass into a buffer with room for an exact length computation, so
// encoding allocates at most the payload. Decoding aliases: every decoded
// PE state or patch is a capacity-clipped sub-slice of the payload, which
// must therefore stay unmodified for as long as the decoded value is in
// use (Snapshot.OwnStates and Snapshot.ApplyDelta copy what an image
// keeps). A Decoder also reuses the values it decodes into, each valid
// until its next Decode.
//
// Layout (all integers LEB128 uvarints unless noted):
//
//	full snapshot   "SHS2" version subjobID consumed peStates pipes input output stateUnits
//	delta           "SHD2" version subjobID prevSeq consumed? peEntries pipeEntries input? output? stateUnits
//
// where strings and byte slices are length-prefixed, element batches are a
// count followed by the element package's fixed-width encoding, consumed
// maps are sorted by key for deterministic output, and the optional delta
// sections carry a leading presence/kind byte. A payload that opens with
// none of the three magics (SHS2, SHD2, SHP2) is rejected with
// errNoMagic.
package subjob

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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

// errNoMagic rejects a checkpoint payload that opens with none of the
// codec's magics.
var errNoMagic = errors.New("subjob: checkpoint payload has no SHS2, SHD2 or SHP2 magic")

func hasMagic(b []byte, magic string) bool {
	return len(b) >= 4 && string(b[:4]) == magic
}

// isDelta reports whether an encoded checkpoint payload is a delta.
func isDelta(b []byte) bool { return hasMagic(b, deltaMagic) }

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
	// The keys of up to eight streams sort in a stack array: slices.Sort,
	// unlike sort.Strings, does not box the slice into an escaping value.
	var buf [8]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
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

// Decoder decodes checkpoint payloads into values it owns: one Snapshot
// and one Delta whose slices, map, element buffers and strings every
// Decode reuses, so a warmed decode of a sweeping checkpoint allocates
// nothing. A decoded value is valid until the next Decode, and a Decoder
// must not be used by two goroutines at once. PE states alias the payload
// exactly as they do for DecodeCheckpoint.
type Decoder struct {
	snap  Snapshot
	delta Delta
	// batches[k] backs the k-th element batch of a payload. The buffers
	// are kept apart from snap and delta, whose fields an empty batch sets
	// to nil, so that they survive it.
	batches  [][]element.Element
	consumed map[string]uint64
}

// Decode parses an encoded checkpoint payload of either kind, as
// DecodeCheckpoint does, into the decoder's own values.
func (d *Decoder) Decode(b []byte) (*Snapshot, *Delta, error) {
	return decodeCheckpoint(b, d)
}

// creader is a sticky-error cursor over an encoded checkpoint, in the
// style of the transport codec's payload reader: after the first framing
// error every subsequent read is a no-op and the error surfaces once.
// With a Decoder it decodes into the decoder's buffers; without one every
// value it returns is fresh.
type creader struct {
	b   []byte
	err error
	dec *Decoder
	// nbatch counts the element batches read so far.
	nbatch int
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

// str reads a string, returning prev rather than a copy when they are
// equal.
func (r *creader) str(prev string) string {
	b := r.take(r.uvarint())
	if string(b) == prev {
		return prev
	}
	return string(b)
}

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

// consumed reads a consumed-positions map. An empty one reads as nil
// unless keepEmpty. With a Decoder the decoder's map is cleared and
// refilled, and each key is one of its old keys when an equal one exists.
func (r *creader) consumed(keepEmpty bool) map[string]uint64 {
	n := r.uvarint()
	if r.err != nil || (n == 0 && !keepEmpty) {
		return nil
	}
	var m map[string]uint64
	if r.dec != nil {
		m = r.dec.consumed
	}
	// The entries are read before m is cleared, so their keys can be
	// matched against its keys; eight streams fit on the stack.
	type entry struct {
		key string
		seq uint64
	}
	var buf [8]entry
	entries := buf[:0]
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.take(r.uvarint())
		entries = append(entries, entry{key: keyOf(m, k), seq: r.uvarint()})
	}
	if r.err != nil {
		return nil
	}
	if m == nil {
		m = make(map[string]uint64, len(entries))
		if r.dec != nil {
			r.dec.consumed = m
		}
	}
	clear(m)
	for _, e := range entries {
		m[e.key] = e.seq
	}
	return m
}

// keyOf returns k as a string: the key of m equal to it if there is one,
// else a copy.
func keyOf(m map[string]uint64, k []byte) string {
	for key := range m {
		if key == string(k) {
			return key
		}
	}
	return string(k)
}

// elems reads an element batch. With a Decoder the k-th batch of a
// payload decodes into the decoder's k-th buffer.
func (r *creader) elems() []element.Element {
	n := r.uvarint()
	var buf *[]element.Element
	if r.dec != nil {
		if r.nbatch == len(r.dec.batches) {
			r.dec.batches = append(r.dec.batches, nil)
		}
		buf = &r.dec.batches[r.nbatch]
		r.nbatch++
	}
	if n == 0 || r.err != nil {
		return nil
	}
	var dst []element.Element
	if buf != nil && uint64(cap(*buf)) >= n {
		dst = (*buf)[:0]
	}
	out, rest, err := element.DecodeBatch(dst, r.b, int(n))
	if err != nil {
		r.fail("element batch: %v", err)
		return nil
	}
	if buf != nil {
		*buf = out
	}
	r.b = rest
	return out
}

// input reads the input-queue section, always into a fresh slice: only
// synchronous and individual checkpoints carry one, and the standby
// stores that own a Decoder receive sweeping checkpoints alone.
func (r *creader) input() []queue.In {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]queue.In, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		stream := r.str("")
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

// resize returns s with n zeroed elements, reusing its array when it has
// room. Like make, it returns a non-nil slice even for n == 0.
func resize[T any](s []T, n uint64) []T {
	if s == nil || uint64(cap(s)) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// decodeCheckpoint is DecodeCheckpoint into dec's values, or into fresh
// ones when dec is nil.
func decodeCheckpoint(b []byte, dec *Decoder) (*Snapshot, *Delta, error) {
	var snap *Snapshot
	var delta *Delta
	if dec != nil {
		snap, delta = &dec.snap, &dec.delta
	}
	switch {
	case IsPartial(b):
		return nil, nil, fmt.Errorf("subjob: partial checkpoint where full/delta expected (partial frames are not foldable)")
	case isDelta(b):
		if delta == nil {
			delta = &Delta{}
		}
		if err := decodeDelta(b, delta, dec); err != nil {
			return nil, nil, err
		}
		return nil, delta, nil
	case hasMagic(b, snapMagic):
		if snap == nil {
			snap = &Snapshot{}
		}
		if err := decodeSnapshotBinary(b, snap, dec); err != nil {
			return nil, nil, err
		}
		return snap, nil, nil
	default:
		return nil, nil, errNoMagic
	}
}

// decodeSnapshotBinary decodes an SHS2 payload into s, overwriting every
// field; dec lends the buffers when non-nil.
func decodeSnapshotBinary(b []byte, s *Snapshot, dec *Decoder) error {
	r := &creader{b: b[4:], dec: dec}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return fmt.Errorf("subjob: unknown snapshot codec version %d", v)
	}
	s.SubjobID = r.str(s.SubjobID)
	s.Consumed = r.consumed(false)
	if n := r.uvarint(); n > 0 && r.err == nil {
		s.PEStates = resize(s.PEStates, n)
		for i := range s.PEStates {
			s.PEStates[i] = r.bytes()
		}
	} else {
		s.PEStates = nil
	}
	if n := r.uvarint(); n > 0 && r.err == nil {
		s.Pipes = resize(s.Pipes, n)
		for i := range s.Pipes {
			s.Pipes[i] = r.elems()
		}
	} else {
		s.Pipes = nil
	}
	s.Input = r.input()
	s.Output.StreamID = r.str(s.Output.StreamID)
	s.Output.Floor = r.uvarint()
	s.Output.NextSeq = r.uvarint()
	s.Output.Buf = r.elems()
	s.StateUnits = int(r.uvarint())
	s.owned = nil
	return r.done("snapshot")
}

// decodeDelta decodes an SHD2 payload into d, overwriting every field;
// dec lends the buffers when non-nil.
func decodeDelta(b []byte, d *Delta, dec *Decoder) error {
	if !hasMagic(b, deltaMagic) {
		return fmt.Errorf("subjob: not a delta checkpoint")
	}
	r := &creader{b: b[4:], dec: dec}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return fmt.Errorf("subjob: unknown delta codec version %d", v)
	}
	d.SubjobID = r.str(d.SubjobID)
	d.PrevSeq = r.uvarint()
	d.Consumed = nil
	if r.byte() == 1 {
		d.Consumed = r.consumed(true)
	}
	nPE := r.uvarint()
	if r.err == nil {
		d.PEDeltas = resize(d.PEDeltas, nPE)
		d.PEFull = resize(d.PEFull, nPE)
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
		d.Pipes = resize(d.Pipes, nPipes)
		d.PipeSet = resize(d.PipeSet, nPipes)
		for i := uint64(0); i < nPipes && r.err == nil; i++ {
			if r.byte() == 1 {
				d.PipeSet[i] = true
				d.Pipes[i] = r.elems()
			}
		}
	}
	d.HasInput = r.byte() == 1
	d.Input = nil
	if d.HasInput {
		d.Input = r.input()
	}
	d.HasOutput = r.byte() == 1
	if d.HasOutput {
		d.Output.StreamID = r.str(d.Output.StreamID)
		d.Output.Floor = r.uvarint()
		d.Output.NextSeq = r.uvarint()
		d.Output.FromSeq = r.uvarint()
		d.Output.New = r.elems()
	} else {
		d.Output = queue.OutputDelta{}
	}
	d.StateUnits = int(r.uvarint())
	return r.done("delta")
}

// DecodeCheckpoint parses an encoded checkpoint payload of either kind:
// exactly one of the returned snapshot and delta is non-nil on success.
// Partial (bounded-error) frames are not valid here: they never enter the
// store fold or the durable catalog, so reaching one is a routing bug.
func DecodeCheckpoint(b []byte) (*Snapshot, *Delta, error) {
	return decodeCheckpoint(b, nil)
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
// kind, and (for deltas) the chain predecessor, reading only a few header
// bytes.
func PeekCheckpoint(b []byte) (CheckpointInfo, error) {
	switch {
	case hasMagic(b, snapMagic):
		r := &creader{b: b[4:]}
		if v := r.byte(); r.err == nil && v != codecVersion {
			return CheckpointInfo{}, fmt.Errorf("subjob: unknown snapshot codec version %d", v)
		}
		id := r.str("")
		if r.err != nil {
			return CheckpointInfo{}, r.err
		}
		return CheckpointInfo{SubjobID: id}, nil
	case hasMagic(b, deltaMagic):
		r := &creader{b: b[4:]}
		if v := r.byte(); r.err == nil && v != codecVersion {
			return CheckpointInfo{}, fmt.Errorf("subjob: unknown delta codec version %d", v)
		}
		id := r.str("")
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
		id := r.str("")
		if r.err != nil {
			return CheckpointInfo{}, r.err
		}
		return CheckpointInfo{SubjobID: id, IsPartial: true}, nil
	default:
		return CheckpointInfo{}, errNoMagic
	}
}
