package subjob

import (
	"bytes"
	"testing"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/transport"
)

func patchOf(finalLen, off int, b ...byte) []byte {
	return pe.AppendPatchChunk(pe.AppendPatchHeader(nil, finalLen, 1), off, b)
}

func filled(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

// TestFoldNeverWritesIntoAPayload pins the buffer-ownership rule of the
// aliasing decoder: a decoded snapshot's PE states are sub-slices of the
// payload, the payload still belongs to the store and the catalog, and so
// folding deltas — a patch onto the decoded full, a full replacement from a
// delta, then a patch onto that replacement — must leave every payload
// byte-identical while the folded image comes out right.
func TestFoldNeverWritesIntoAPayload(t *testing.T) {
	full := &Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": 10},
		PEStates: [][]byte{filled(16, 0x11), filled(16, 0x22)},
		Pipes:    [][]element.Element{nil},
		Output:   queue.OutputSnapshot{StreamID: "out", NextSeq: 1},
	}
	d1 := &Delta{
		SubjobID: "j/sj", PrevSeq: 1,
		PEDeltas: [][]byte{patchOf(16, 4, 0xAA, 0xBB), nil},
		PEFull:   [][]byte{nil, filled(16, 0x77)},
		Pipes:    [][]element.Element{nil}, PipeSet: []bool{false},
	}
	d2 := &Delta{
		SubjobID: "j/sj", PrevSeq: 2,
		PEDeltas: [][]byte{patchOf(16, 0, 0x01), patchOf(16, 2, 0x99)},
		PEFull:   [][]byte{nil, nil},
		Pipes:    [][]element.Element{nil}, PipeSet: []bool{false},
	}
	payloads := [][]byte{snapBytes(t, full)}
	for _, d := range []*Delta{d1, d2} {
		b, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	pristine := make([][]byte, len(payloads))
	for i, p := range payloads {
		pristine[i] = append([]byte(nil), p...)
	}

	img, err := DecodeSnapshot(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range img.PEStates {
		if cap(st) != len(st) {
			t.Fatalf("decoded PE state %d has cap %d beyond its len %d: growing it would write into the payload", i, cap(st), len(st))
		}
	}
	for i, p := range payloads[1:] {
		d, err := DecodeDelta(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := img.ApplyDelta(d); err != nil {
			t.Fatalf("fold delta %d: %v", i+1, err)
		}
	}

	want0 := filled(16, 0x11)
	want0[0], want0[4], want0[5] = 0x01, 0xAA, 0xBB
	want1 := filled(16, 0x77)
	want1[2] = 0x99
	if !bytes.Equal(img.PEStates[0], want0) || !bytes.Equal(img.PEStates[1], want1) {
		t.Fatalf("folded states %x / %x, want %x / %x", img.PEStates[0], img.PEStates[1], want0, want1)
	}
	for i := range payloads {
		if !bytes.Equal(payloads[i], pristine[i]) {
			t.Fatalf("payload %d was modified by the fold", i)
		}
	}
	again, err := DecodeSnapshot(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.PEStates[0], filled(16, 0x11)) || !bytes.Equal(again.PEStates[1], filled(16, 0x22)) {
		t.Fatal("the full payload no longer decodes to its pre-fold state")
	}
}

// plainLogic implements pe.Logic and nothing else.
type plainLogic struct{ snaps int }

func (l *plainLogic) Process(e element.Element, emit func(element.Element)) { emit(e) }
func (l *plainLogic) Snapshot() []byte                                      { l.snaps++; return []byte{byte(l.snaps)} }
func (l *plainLogic) Restore([]byte) error                                  { return nil }
func (l *plainLogic) StateSize() int                                        { return 1 }

// countingCounter is the shape of the benchmark's traced logic: it embeds
// *pe.CounterLogic, so RecycleSnapshot is promoted, and overrides Snapshot.
type countingCounter struct {
	*pe.CounterLogic
	snaps int
}

func (l *countingCounter) Snapshot() []byte { l.snaps++; return l.CounterLogic.Snapshot() }

// TestCaptureCallsSnapshotOnEveryLogic: buffer recycling must not route
// around Logic.Snapshot. A logic without the recycler capability and a
// wrapper overriding Snapshot both see every full capture, and the wrapper
// still gets its released buffer back through the promoted recycler.
func TestCaptureCallsSnapshotOnEveryLogic(t *testing.T) {
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	m, err := machine.New("m1", clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	plain := &plainLogic{}
	wrapped := &countingCounter{CounterLogic: &pe.CounterLogic{Pad: 4, HotSlots: 4}}
	spec := testSpec("j/sj")
	spec.PEs = []PESpec{
		{Name: "plain", NewLogic: func() pe.Logic { return plain }},
		{Name: "wrapped", NewLogic: func() pe.Logic { return wrapped }},
	}
	rt, err := New(spec, m, true) // never started: the test is its only caller
	if err != nil {
		t.Fatal(err)
	}

	var released *byte
	for i := 1; i <= 5; i++ {
		wrapped.Process(element.Element{ID: uint64(i), Payload: 1}, func(element.Element) {})
		s := rt.CaptureFull()
		if plain.snaps != i || wrapped.snaps != i {
			t.Fatalf("capture %d: Snapshot called %d times on the plain logic, %d on the wrapper", i, plain.snaps, wrapped.snaps)
		}
		var got pe.CounterLogic
		if err := got.Restore(s.PEStates[1]); err != nil {
			t.Fatal(err)
		}
		if got.Count() != uint64(i) {
			t.Fatalf("capture %d: snapshot holds count %d", i, got.Count())
		}
		if released != nil && &s.PEStates[1][0] != released {
			t.Fatalf("capture %d did not fill the buffer released after capture %d", i, i-1)
		}
		released = &s.PEStates[1][0]
		rt.ReleaseSnapshot(s)
		if s.PEStates[1] != nil {
			t.Fatal("ReleaseSnapshot left the snapshot holding a buffer it gave away")
		}
	}

	if n := len(rt.spares[0]); n != 0 {
		t.Fatalf("runtime kept %d buffers of a logic that never takes one back", n)
	}

	// A snapshot that is never released costs an allocation, not a stale
	// buffer: two live snapshots never share memory.
	a, b := rt.Snapshot(), rt.Snapshot()
	if &a.PEStates[1][0] == &b.PEStates[1][0] {
		t.Fatal("two unreleased snapshots share a PE-state buffer")
	}
}
