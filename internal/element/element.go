// Package element defines the data elements that flow through stream
// processing jobs, together with their identity and encoding rules.
//
// Identity matters for high availability: active-standby replicas and
// post-recovery retransmissions both produce duplicate elements, and
// downstream consumers eliminate them by logical ID. Deterministic
// processing elements must therefore derive output IDs purely from input
// IDs, which DeriveID guarantees.
package element

import (
	"encoding/binary"
	"fmt"
)

// Element is one unit of streaming data.
//
// ID is the logical identity of the element. Two elements with the same ID
// are duplicates of the same logical datum (for example, the outputs of two
// active-standby replicas of a deterministic PE), and consumers keep only
// one of them.
//
// Origin is the creation timestamp at the source in nanoseconds since the
// Unix epoch; the sink uses it to measure end-to-end delay.
//
// Seq is the transport sequence number assigned by the output queue of the
// sending PE; it is scoped to one logical stream (one output queue) and is
// the unit of cumulative acknowledgment and trimming.
type Element struct {
	ID      uint64
	Origin  int64
	Seq     uint64
	Payload int64
	// Key is the partitioning key: keyed-parallel stages route an element
	// to the instance owning keyHash(Key)'s partition. Sources stamp it and
	// deterministic PEs must carry it through to derived outputs, so an
	// element stays on its partition across the whole chain. Zero is a
	// valid key.
	Key uint64
}

// EncodedSize is the wire size of one element in bytes.
const EncodedSize = 8 * 5

// AppendEncode appends the binary encoding of e to dst and returns the
// extended slice.
func (e Element) AppendEncode(dst []byte) []byte {
	var buf [EncodedSize]byte
	binary.BigEndian.PutUint64(buf[0:8], e.ID)
	binary.BigEndian.PutUint64(buf[8:16], uint64(e.Origin))
	binary.BigEndian.PutUint64(buf[16:24], e.Seq)
	binary.BigEndian.PutUint64(buf[24:32], uint64(e.Payload))
	binary.BigEndian.PutUint64(buf[32:40], e.Key)
	return append(dst, buf[:]...)
}

// Decode parses one element from b.
func Decode(b []byte) (Element, error) {
	if len(b) < EncodedSize {
		return Element{}, fmt.Errorf("element: short buffer: %d bytes", len(b))
	}
	return Element{
		ID:      binary.BigEndian.Uint64(b[0:8]),
		Origin:  int64(binary.BigEndian.Uint64(b[8:16])),
		Seq:     binary.BigEndian.Uint64(b[16:24]),
		Payload: int64(binary.BigEndian.Uint64(b[24:32])),
		Key:     binary.BigEndian.Uint64(b[32:40]),
	}, nil
}

// AppendBatch appends the fixed-width binary encoding of each element in
// elems to dst and returns the extended slice. The encoding is the
// concatenation of AppendEncode outputs; the caller records the count.
func AppendBatch(dst []byte, elems []Element) []byte {
	for _, e := range elems {
		dst = e.AppendEncode(dst)
	}
	return dst
}

// DecodeBatch parses n fixed-width elements from b, appending them to dst
// (which may be nil), and returns the extended slice together with the
// unconsumed remainder of b.
func DecodeBatch(dst []Element, b []byte, n int) ([]Element, []byte, error) {
	if n < 0 || n > len(b)/EncodedSize {
		return dst, b, fmt.Errorf("element: batch of %d elements needs %d bytes, have %d", n, n*EncodedSize, len(b))
	}
	if dst == nil && n > 0 {
		dst = make([]Element, 0, n)
	}
	for i := 0; i < n; i++ {
		e, err := Decode(b[i*EncodedSize:])
		if err != nil {
			return dst, b, err
		}
		dst = append(dst, e)
	}
	return dst, b[n*EncodedSize:], nil
}

// CloneBatch returns an independent copy of a batch. The data plane shares
// published batches across subscribers without copying (see the queue
// package's ownership rules); a consumer that needs to mutate or retain a
// batch beyond its handler takes a copy-on-write clone with this helper.
func CloneBatch(elems []Element) []Element {
	if len(elems) == 0 {
		return nil
	}
	out := make([]Element, len(elems))
	copy(out, elems)
	return out
}

// DeriveID deterministically derives the logical ID of the i-th output
// element produced while processing the input element with ID parent.
//
// For selectivity-1 PEs (i == 0 and one output per input) the identity is
// preserved bit-for-bit, so end-to-end duplicate elimination can compare
// source IDs directly. For higher selectivity the derived IDs of distinct
// (parent, i) pairs are distinct with overwhelming probability.
func DeriveID(parent uint64, i int) uint64 {
	if i == 0 {
		return parent
	}
	// splitmix64 finalizer over the pair; cheap and well distributed.
	x := parent ^ (uint64(i) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyHash maps a partitioning key to a well-distributed 64-bit hash (the
// splitmix64 finalizer). It is a pure function of the key, so every copy of
// every producer — and every restart — routes a key identically.
func keyHash(key uint64) uint64 {
	x := key + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PartitionOf returns the logical partition of key among parts partitions.
// Partitions are stable in the number of logical partitions, not in the
// number of instances, so rescaling an operator moves whole partitions
// between instances without reshuffling the keys inside unmoved ones.
func PartitionOf(key uint64, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int(keyHash(key) % uint64(parts))
}

// String implements fmt.Stringer for debugging output.
func (e Element) String() string {
	return fmt.Sprintf("elem{id=%d seq=%d payload=%d}", e.ID, e.Seq, e.Payload)
}
