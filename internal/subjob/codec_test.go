package subjob

import (
	"bytes"
	"testing"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/transport"
)

// codecFeeder reuses one feeder machine across sends — the shared feed()
// helper registers a new node per call and can only be used once per test.
type codecFeeder struct {
	m  *machine.Machine
	to transport.NodeID
	sj string
}

func newCodecFeeder(t *testing.T, net *transport.Mem, to transport.NodeID, sj string) *codecFeeder {
	t.Helper()
	m, err := machine.New("codec-feeder-"+string(to)+sj, clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	return &codecFeeder{m: m, to: to, sj: sj}
}

func (f *codecFeeder) send(from, toSeq uint64) {
	batch := make([]element.Element, 0, toSeq-from+1)
	for s := from; s <= toSeq; s++ {
		batch = append(batch, element.Element{ID: s, Seq: s, Payload: int64(s)})
	}
	f.m.Send(f.to, transport.Message{
		Kind:     transport.KindData,
		Stream:   DataStream(f.sj, "in"),
		Elements: batch,
	})
}

// deltaSpec is testSpec with keyed pad state, so CounterLogic produces
// real incremental patches instead of full-state fallbacks.
func deltaSpec(id string) Spec {
	s := testSpec(id)
	for i := range s.PEs {
		s.PEs[i].NewLogic = func() pe.Logic { return &pe.CounterLogic{Pad: 8, HotSlots: 16} }
	}
	return s
}

func deltaRuntime(t *testing.T, suspended bool) (*Runtime, *machine.Machine, *transport.Mem) {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	m, err := machine.New("m1", clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(deltaSpec("j/sj"), m, suspended)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt, m, net
}

// snapBytes canonicalizes a snapshot through the deterministic binary
// codec, so byte equality is deep equality.
func snapBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	rt, _, net := deltaRuntime(t, false)
	feed(t, net, "m1", "j/sj", 1, 12)
	waitProcessed(t, rt, 12)

	var snap *Snapshot
	rt.WithPaused(func() {
		snap = rt.CaptureFull()
		snap.Input = rt.In().SnapshotBuf()
	})
	enc := snapBytes(t, snap)
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, got), enc) {
		t.Fatal("binary round trip diverged")
	}
	if got.SubjobID != "j/sj" || got.Consumed["in"] != 12 {
		t.Fatalf("decoded header: id=%q consumed=%v", got.SubjobID, got.Consumed)
	}
}

func TestDecodeRejectsGarbageAndKindMixups(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("SHS2")); err == nil {
		t.Fatal("truncated binary snapshot accepted")
	}
	if _, err := DecodeDelta([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage delta accepted")
	}

	rt, _, _ := deltaRuntime(t, false)
	rt.WithPaused(func() { rt.CaptureFull() })
	var d *Delta
	rt.WithPaused(func() { d, _ = rt.CaptureDelta(DeltaOptions{OutputSince: 1, IncludeOutput: true, OnlyPE: -1}) })
	if d == nil {
		t.Fatal("no delta")
	}
	enc, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !isDelta(enc) {
		t.Fatal("encoded delta not recognized")
	}
	if _, err := DecodeSnapshot(enc); err == nil {
		t.Fatal("delta accepted as a full snapshot")
	}
	snap, delta, err := DecodeCheckpoint(enc)
	if err != nil || snap != nil || delta == nil {
		t.Fatalf("DecodeCheckpoint(delta) = (%v, %v, %v)", snap, delta, err)
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	rt, _, net := deltaRuntime(t, false)
	f := newCodecFeeder(t, net, "m1", "j/sj")
	f.send(1, 8)
	waitProcessed(t, rt, 8)
	var base *Snapshot
	rt.WithPaused(func() { base = rt.CaptureFull() })

	f.send(9, 14)
	waitProcessed(t, rt, 14)
	var d *Delta
	rt.WithPaused(func() {
		d, _ = rt.CaptureDelta(DeltaOptions{
			OutputSince:   base.Output.NextSeq,
			IncludeOutput: true,
			IncludeInput:  true,
			OnlyPE:        -1,
		})
	})
	if d == nil {
		t.Fatal("no delta")
	}
	enc, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("delta round trip diverged")
	}
	if got.SubjobID != "j/sj" || got.Consumed["in"] != 14 {
		t.Fatalf("decoded delta header: id=%q consumed=%v", got.SubjobID, got.Consumed)
	}
}

// TestSnapshotFoldEquivalence: folding captured deltas into the base
// snapshot yields the same bytes as a fresh full capture — the invariant
// the checkpoint store's folding relies on.
func TestSnapshotFoldEquivalence(t *testing.T) {
	rt, _, net := deltaRuntime(t, false)
	f := newCodecFeeder(t, net, "m1", "j/sj")
	f.send(1, 10)
	waitProcessed(t, rt, 10)

	var folded *Snapshot
	rt.WithPaused(func() { folded = rt.CaptureFull() })
	last := folded.Output.NextSeq

	next := uint64(11)
	for round := 0; round < 3; round++ {
		f.send(next, next+6)
		waitProcessed(t, rt, next+6)
		next += 7

		var d *Delta
		var full *Snapshot
		rt.WithPaused(func() {
			d, _ = rt.CaptureDelta(DeltaOptions{OutputSince: last, IncludeOutput: true, OnlyPE: -1})
			full = rt.Snapshot()
		})
		if d == nil {
			t.Fatalf("round %d: no delta", round)
		}
		// Route through the codec so the fold sees exactly what a store sees.
		enc, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := DecodeDelta(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := folded.ApplyDelta(d2); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		last = d.Output.NextSeq

		if !bytes.Equal(snapBytes(t, folded), snapBytes(t, full)) {
			t.Fatalf("round %d: folded snapshot != full snapshot", round)
		}
	}
}

// TestRuntimeApplyDeltaEquivalence: a standby runtime kept fresh by
// Restore(full) + ApplyDelta(...) holds the same state as one restored
// from the final full snapshot.
func TestRuntimeApplyDeltaEquivalence(t *testing.T) {
	rt, _, net := deltaRuntime(t, false)
	standbyNet := transport.NewMem(transport.MemConfig{})
	t.Cleanup(standbyNet.Close)
	sm, err := machine.New("m2", clock.New(), standbyNet)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := New(deltaSpec("j/sj"), sm, true)
	if err != nil {
		t.Fatal(err)
	}
	standby.Start()
	t.Cleanup(standby.Stop)

	f := newCodecFeeder(t, net, "m1", "j/sj")
	f.send(1, 9)
	waitProcessed(t, rt, 9)
	var base *Snapshot
	rt.WithPaused(func() { base = rt.CaptureFull() })
	if err := standby.Restore(base); err != nil {
		t.Fatal(err)
	}
	last := base.Output.NextSeq

	f.send(10, 21)
	waitProcessed(t, rt, 21)
	var d *Delta
	var final *Snapshot
	rt.WithPaused(func() {
		d, _ = rt.CaptureDelta(DeltaOptions{OutputSince: last, IncludeOutput: true, OnlyPE: -1})
		final = rt.Snapshot()
	})
	if d == nil {
		t.Fatal("no delta")
	}
	if err := standby.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, standby.Snapshot()), snapBytes(t, final)) {
		t.Fatal("standby state != primary state after delta apply")
	}

	// A non-chaining delta must be rejected, leaving an error the caller
	// can use to force a full rebase.
	if err := standby.ApplyDelta(d); err == nil {
		t.Fatal("replayed delta accepted by runtime")
	}
}

func TestSnapshotClone(t *testing.T) {
	rt, _, net := deltaRuntime(t, false)
	feed(t, net, "m1", "j/sj", 1, 6)
	waitProcessed(t, rt, 6)
	snap := rt.Snapshot()
	c := snap.Clone()
	if !bytes.Equal(snapBytes(t, c), snapBytes(t, snap)) {
		t.Fatal("clone differs")
	}
	if len(snap.PEStates[0]) > 0 {
		c.PEStates[0][0] ^= 0xFF
		if bytes.Equal(snapBytes(t, c), snapBytes(t, snap)) {
			t.Fatal("clone shares PE state backing array")
		}
	}
}
