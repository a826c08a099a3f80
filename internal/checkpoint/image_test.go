package checkpoint

import (
	"bytes"
	"testing"

	"streamha/internal/element"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
)

// TestImageFoldsDeltasToTheFull feeds an Image one full and then deltas of
// a two-PE copy that keeps processing between them: hot pad pages change,
// the pipe holds whatever the second PE has not taken yet, and the output
// window grows and is trimmed. Each delta refills the one before it once
// that is encoded, as the checkpoint shipper recycles them. After every
// fold the image encodes byte for byte as a snapshot of the copy taken in
// the same pause, and after the last as a CaptureFull.
func TestImageFoldsDeltasToTheFull(t *testing.T) {
	r := newRig(t, InMemory)
	counter := func() pe.Logic { return &pe.CounterLogic{Pad: 64, HotSlots: 200} }
	rt, err := subjob.New(subjob.Spec{
		JobID:     "j",
		ID:        "j/img",
		InStreams: []string{"in"},
		Owners:    map[string]string{"in": "up"},
		OutStream: "out",
		BatchSize: 8,
		PEs:       []subjob.PESpec{{Name: "a", NewLogic: counter}, {Name: "b", NewLogic: counter}},
	}, r.priM, false)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	// Sends to the subscriber go nowhere; its acks trim the window.
	rt.Out().Subscribe("down", subjob.DataStream("j/down", "out"), true)

	encode := func(s *subjob.Snapshot) []byte {
		b, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	im := &Image{}
	fold := func(payload []byte) {
		t.Helper()
		snap, d, err := im.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if out := im.Apply(snap, d); out != Folded {
			t.Fatalf("fold outcome %v", out)
		}
	}

	r.feedRuntime(t, rt, 1, 30)
	var full *subjob.Snapshot
	rt.WithPaused(func() { full = rt.CaptureFull() })
	since := full.Output.NextSeq
	fold(encode(full))

	var d *subjob.Delta
	next := uint64(31)
	for round := 1; round <= 8; round++ {
		r.feedRuntime(t, rt, next, next+24)
		next += 25
		if round%3 != 0 {
			rt.Out().Ack("down", rt.Out().NextSeq()-uint64(4*round))
		}
		var ref *subjob.Snapshot
		last := round == 8
		rt.WithPaused(func() {
			d, _ = rt.CaptureDelta(subjob.DeltaOptions{OutputSince: since, IncludeOutput: true, OnlyPE: -1}, d)
			if last {
				ref = rt.CaptureFull()
			} else {
				ref = rt.Snapshot()
			}
		})
		if d == nil {
			t.Fatalf("round %d: no delta", round)
		}
		if d.PEDeltas[0] == nil || d.PEDeltas[1] == nil {
			t.Fatalf("round %d: a PE shipped its full state", round)
		}
		since = d.Output.NextSeq
		fold(d.AppendTo(nil))
		got, ok := im.snapshot()
		if !ok {
			t.Fatal("the image holds nothing")
		}
		if want := encode(ref); !bytes.Equal(encode(got), want) {
			t.Fatalf("round %d: the folded image (%d B) differs from the copy's snapshot (%d B)",
				round, len(encode(got)), len(want))
		}
	}
}

// TestImageDeltaFoldAllocatesNothing: once an Image has folded a few
// deltas, decoding and folding one more that moves its output window at a
// steady size, replaces its pipe and patches its PE state allocates
// nothing — the decoder reuses its values and the fold copies into the
// image's own buffers.
func TestImageDeltaFoldAllocatesNothing(t *testing.T) {
	state := (&pe.CounterLogic{Pad: 8}).Snapshot()
	elems := func(first, n uint64) []element.Element {
		out := make([]element.Element, n)
		for i := range out {
			out[i] = element.Element{ID: first + uint64(i), Seq: first + uint64(i)}
		}
		return out
	}
	const window, step = 32, 4
	im := &Image{}
	full, err := (&subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": 0},
		PEStates: [][]byte{state, state},
		Pipes:    [][]element.Element{elems(1, step)},
		Output:   queue.OutputSnapshot{StreamID: "out", NextSeq: window + 1, Buf: elems(1, window)},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if snap, _, err := im.Decode(full); err != nil || im.Apply(snap, nil) != Folded {
		t.Fatalf("full: %v", err)
	}
	// Every delta advances consumed, floor and next by step, replaces the
	// pipe and rewrites the first PE's counter head.
	var payloads [][]byte
	for k := uint64(0); k < 120; k++ {
		var head [16]byte
		head[7] = byte(k)
		d := &subjob.Delta{
			SubjobID:  "j/sj",
			Consumed:  map[string]uint64{"in": (k + 1) * step},
			PEDeltas:  [][]byte{pe.AppendPatchChunk(pe.AppendPatchHeader(nil, len(state), 1), 0, head[:]), nil},
			PEFull:    [][]byte{nil, nil},
			Pipes:     [][]element.Element{elems(k*step, step)},
			PipeSet:   []bool{true},
			HasOutput: true,
			Output: queue.OutputDelta{
				StreamID: "out",
				Floor:    (k + 1) * step,
				FromSeq:  window + 1 + k*step,
				NextSeq:  window + 1 + (k+1)*step,
				New:      elems(window+1+k*step, step),
			},
		}
		payloads = append(payloads, d.AppendTo(nil))
	}
	next := 0
	foldNext := func() {
		_, d, err := im.Decode(payloads[next])
		next++
		if err != nil || d == nil {
			t.Fatalf("delta %d: %v", next, err)
		}
		if out := im.Apply(nil, d); out != Folded {
			t.Fatalf("delta %d: outcome %v", next, out)
		}
	}
	for i := 0; i < 10; i++ {
		foldNext()
	}
	if got := testing.AllocsPerRun(100, foldNext); got != 0 {
		t.Errorf("folding a delta made %v allocations, want 0", got)
	}
	got, _ := im.snapshot()
	if got.Consumed["in"] != uint64(next*step) || len(got.Output.Buf) != window ||
		got.Output.Buf[0].Seq != uint64(next*step+1) {
		t.Fatalf("image after %d deltas: consumed %v, window %d from seq %d",
			next, got.Consumed, len(got.Output.Buf), got.Output.Buf[0].Seq)
	}
}
