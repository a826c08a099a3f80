package subjob

import (
	"reflect"
	"testing"

	"streamha/internal/element"
	"streamha/internal/queue"
)

// batch returns elements with the given IDs, each its own Seq.
func batch(ids ...uint64) []element.Element {
	out := make([]element.Element, len(ids))
	for i, id := range ids {
		out[i] = element.Element{ID: id, Origin: int64(id) * 10, Seq: id, Payload: -int64(id), Key: id * 3}
	}
	return out
}

func mustEncode(t *testing.T, v interface{ Encode() ([]byte, error) }) []byte {
	t.Helper()
	b, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fullWithPipes is a sweeping checkpoint of three PEs: two pipes, one of
// them empty, three consumed streams and a non-empty output.
func fullWithPipes() *Snapshot {
	return &Snapshot{
		SubjobID:   "j/sj",
		Consumed:   map[string]uint64{"in-a": 300, "in-b": 7, "in-c": 1 << 40},
		PEStates:   [][]byte{{1, 2, 3}, {4}, {5, 6}},
		Pipes:      [][]element.Element{batch(11, 12, 13), nil},
		Output:     queue.OutputSnapshot{StreamID: "out", Floor: 20, NextSeq: 23, Buf: batch(21, 22)},
		StateUnits: 3,
	}
}

// deltaWithOutput is a sweeping delta of three PEs that sets both pipes
// and advances the output.
func deltaWithOutput() *Delta {
	return &Delta{
		SubjobID:   "j/sj",
		PrevSeq:    4,
		Consumed:   map[string]uint64{"in-a": 310, "in-b": 9},
		PEDeltas:   [][]byte{{9, 9}, nil, nil},
		PEFull:     [][]byte{nil, {4}, nil},
		Pipes:      [][]element.Element{batch(14), batch(15, 16)},
		PipeSet:    []bool{true, true},
		Output:     queue.OutputDelta{StreamID: "out", Floor: 22, NextSeq: 25, FromSeq: 23, New: batch(23, 24)},
		HasOutput:  true,
		StateUnits: 1,
	}
}

// TestDecoderWarmDecodeAllocatesNothing: once a Decoder has seen sweeping
// checkpoints of a shape, decoding another full snapshot or delta of that
// shape reuses every slice, map, element buffer and string.
func TestDecoderWarmDecodeAllocatesNothing(t *testing.T) {
	full := mustEncode(t, fullWithPipes())
	delta := mustEncode(t, deltaWithOutput())
	var dec Decoder
	for i := 0; i < 3; i++ {
		if _, _, err := dec.Decode(full); err != nil {
			t.Fatal(err)
		}
		if _, _, err := dec.Decode(delta); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { dec.Decode(full) }); got != 0 {
		t.Errorf("a warmed full-snapshot decode made %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { dec.Decode(delta) }); got != 0 {
		t.Errorf("a warmed delta decode made %v allocations, want 0", got)
	}
}

// TestDecoderMatchesFreshDecode feeds one Decoder payloads whose shape
// shrinks, grows and alternates between kinds: every result must be
// indistinguishable from a fresh DecodeCheckpoint of the same bytes, down
// to nil versus empty slices and maps.
func TestDecoderMatchesFreshDecode(t *testing.T) {
	onePipeless := &Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in-b": 8},
		PEStates: [][]byte{{7}},
		Output:   queue.OutputSnapshot{StreamID: "out", Floor: 30, NextSeq: 31},
	}
	// PipeSet false everywhere, no output, positions present but empty.
	quietDelta := &Delta{
		SubjobID: "j/sj",
		PrevSeq:  5,
		Consumed: map[string]uint64{},
		PEDeltas: [][]byte{nil, {1}, nil},
		PEFull:   [][]byte{nil, nil, nil},
		Pipes:    make([][]element.Element, 2),
		PipeSet:  make([]bool, 2),
		Input:    []queue.In{{Stream: "in-a", Elem: batch(2)[0]}, {Stream: "in-z", Elem: batch(3)[0]}},
		HasInput: true,
	}
	// Consumed flag 0, no PEs or pipes, no input, no output.
	bareDelta := &Delta{SubjobID: "j/sj", PrevSeq: 6}
	// Input sections come from the synchronous and individual variants.
	withInput := fullWithPipes()
	withInput.Input = []queue.In{{Stream: "in-a", Elem: batch(301)[0]}, {Stream: "in-b", Elem: batch(8)[0]}}
	deltaWithInput := deltaWithOutput()
	deltaWithInput.Input, deltaWithInput.HasInput = []queue.In{{Stream: "in-c", Elem: batch(5)[0]}}, true
	payloads := []struct {
		name string
		b    []byte
	}{
		{"full with 2 pipes, 3 streams and input", mustEncode(t, withInput)},
		{"full with 0 pipes and 1 stream", mustEncode(t, onePipeless)},
		{"delta with pipes, input and output", mustEncode(t, deltaWithInput)},
		{"delta with PipeSet false and no output", mustEncode(t, quietDelta)},
		{"delta with consumed flag 0", mustEncode(t, bareDelta)},
		{"full with 2 pipes, no input", mustEncode(t, fullWithPipes())},
		{"delta with pipes again", mustEncode(t, deltaWithOutput())},
	}
	var dec Decoder
	for _, p := range payloads {
		gotSnap, gotDelta, err := dec.Decode(p.b)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		wantSnap, wantDelta, err := DecodeCheckpoint(p.b)
		if err != nil {
			t.Fatalf("%s: fresh decode: %v", p.name, err)
		}
		if !reflect.DeepEqual(gotSnap, wantSnap) {
			t.Errorf("%s: snapshot\n got %+v\nwant %+v", p.name, gotSnap, wantSnap)
		}
		if !reflect.DeepEqual(gotDelta, wantDelta) {
			t.Errorf("%s: delta\n got %+v\nwant %+v", p.name, gotDelta, wantDelta)
		}
	}
	if _, d, _ := dec.Decode(payloads[4].b); d.Consumed != nil || d.HasInput || d.HasOutput {
		t.Errorf("bare delta decoded Consumed=%v HasInput=%v HasOutput=%v", d.Consumed, d.HasInput, d.HasOutput)
	}
}
