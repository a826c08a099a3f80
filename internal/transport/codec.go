package transport

import (
	"encoding/binary"
	"errors"

	"streamha/internal/element"
)

// magicBinary is the preamble: the first four bytes of every outbound
// connection, before its first frame. serve drops a connection that opens
// with anything else.
const (
	magicBinary = "SHB1"
	magicLen    = 4
)

// maxWireFrame bounds a frame's payload size on decode, so a corrupt or
// hostile length prefix cannot make the reader allocate unboundedly.
const maxWireFrame = 64 << 20

// errFrameMalformed reports a frame that does not parse.
var errFrameMalformed = errors.New("transport: malformed wire frame")

// The binary wire format. A connection carries the preamble followed by a
// stream of frames:
//
//	frame   := len payload            // len: uvarint byte length of payload
//	payload := kind                   // 1 byte (Kind)
//	           from to stream         // each: uvarint length + raw bytes
//	           seq                    // uvarint
//	           command               // uvarint length + raw bytes
//	           elementCount           // uvarint (checkpoint accounting)
//	           state                  // uvarint length + raw bytes
//	           elements               // uvarint count + count fixed-width
//	                                  // element encodings (element.EncodedSize)
//
// All varints are canonical unsigned LEB128 (encoding/binary uvarint).
// Fixed-width element bodies use element.AppendEncode's big-endian layout.

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func framePayloadSize(from, to NodeID, msg *Message) int {
	n := 1 // kind
	n += uvarintLen(uint64(len(from))) + len(from)
	n += uvarintLen(uint64(len(to))) + len(to)
	n += uvarintLen(uint64(len(msg.Stream))) + len(msg.Stream)
	n += uvarintLen(msg.Seq)
	n += uvarintLen(uint64(len(msg.Command))) + len(msg.Command)
	n += uvarintLen(uint64(msg.ElementCount))
	n += uvarintLen(uint64(len(msg.State))) + len(msg.State)
	n += uvarintLen(uint64(len(msg.Elements))) + len(msg.Elements)*element.EncodedSize
	return n
}

func appendLenPrefixed(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFrame appends the length-prefixed binary encoding of one wire frame
// to dst and returns the extended slice. The payload size is computed up
// front, so encoding is a single append pass with no intermediate buffer.
func AppendFrame(dst []byte, from, to NodeID, msg *Message) []byte {
	dst = binary.AppendUvarint(dst, uint64(framePayloadSize(from, to, msg)))
	dst = append(dst, byte(msg.Kind))
	dst = appendLenPrefixed(dst, string(from))
	dst = appendLenPrefixed(dst, string(to))
	dst = appendLenPrefixed(dst, msg.Stream)
	dst = binary.AppendUvarint(dst, msg.Seq)
	dst = appendLenPrefixed(dst, msg.Command)
	dst = binary.AppendUvarint(dst, uint64(msg.ElementCount))
	dst = binary.AppendUvarint(dst, uint64(len(msg.State)))
	dst = append(dst, msg.State...)
	dst = binary.AppendUvarint(dst, uint64(len(msg.Elements)))
	dst = element.AppendBatch(dst, msg.Elements)
	return dst
}

// DecodeFrame decodes one length-prefixed frame from the front of b and
// returns the decoded fields plus the number of bytes consumed. The decoded
// message owns its memory: nothing in it aliases b.
func DecodeFrame(b []byte) (from, to NodeID, msg Message, n int, err error) {
	size, ln := binary.Uvarint(b)
	if ln <= 0 || size > maxWireFrame || uint64(len(b)-ln) < size {
		err = errFrameMalformed
		return
	}
	from, to, msg, err = decodeFramePayload(b[ln:ln+int(size)], nil)
	n = ln + int(size)
	return
}

// maxInternedNames caps a connection's name table: the peer is outside the
// program, so the names it sends are not a bounded set.
const maxInternedNames = 256

// payloadReader is a sticky-error cursor over one frame payload. names, if
// not nil, interns the strings it reads (see str).
type payloadReader struct {
	b     []byte
	err   error
	names map[string]string
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = errFrameMalformed
	}
}

func (r *payloadReader) byte() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// str reads a uvarint-length-prefixed string that does not alias the
// payload buffer. A name already in the reader's table is returned from
// it without allocating; a new one is copied and, while the table has
// room, added to it.
func (r *payloadReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	b := r.b[:n]
	r.b = r.b[n:]
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if r.names != nil && len(r.names) < maxInternedNames {
		r.names[s] = s
	}
	return s
}

// bytes reads a uvarint-length-prefixed byte string into fresh memory.
func (r *payloadReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	var out []byte
	if n > 0 {
		out = append([]byte(nil), r.b[:n]...)
	}
	r.b = r.b[n:]
	return out
}

// decodeFramePayload parses one frame payload. The payload buffer may be
// reused by the caller after return. names is the connection's table of
// interned node and stream names, or nil to copy every name.
func decodeFramePayload(b []byte, names map[string]string) (from, to NodeID, msg Message, err error) {
	r := payloadReader{b: b, names: names}
	msg.Kind = Kind(r.byte())
	from = NodeID(r.str())
	to = NodeID(r.str())
	msg.Stream = r.str()
	msg.Seq = r.uvarint()
	msg.Command = r.str()
	msg.ElementCount = int(r.uvarint())
	msg.State = r.bytes()
	nElems := r.uvarint()
	if r.err != nil {
		return from, to, Message{}, r.err
	}
	if nElems > uint64(len(r.b)/element.EncodedSize) {
		return from, to, Message{}, errFrameMalformed
	}
	elems, rest, derr := element.DecodeBatch(nil, r.b, int(nElems))
	if derr != nil {
		return from, to, Message{}, derr
	}
	if len(rest) != 0 {
		return from, to, Message{}, errFrameMalformed
	}
	msg.Elements = elems
	return from, to, msg, nil
}
