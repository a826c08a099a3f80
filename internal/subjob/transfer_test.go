package subjob_test

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"streamha/internal/checkpoint"
	"streamha/internal/clock"
	"streamha/internal/core"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

func transferSpec(id, out string) subjob.Spec {
	counter := func() pe.Logic { return &pe.CounterLogic{Pad: 1, HotSlots: 5} }
	return subjob.Spec{
		JobID:     "j",
		ID:        id,
		InStreams: []string{"a", "b"},
		Owners:    map[string]string{"a": "up", "b": "up"},
		OutStream: out,
		PEs:       []subjob.PESpec{{Name: "pe0", NewLogic: counter}, {Name: "pe1", NewLogic: counter}},
	}
}

// transferRig returns a donor with two PEs, a non-empty pipe and an
// output queue of its own, and a fresh suspended receiver — the new
// instance of a live rescale — that has published three elements on its own
// stream.
func transferRig(t *testing.T) (donor, recv *subjob.Runtime) {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	m, err := machine.New("m", clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	if donor, err = subjob.New(transferSpec("j/sj.p0", "out.p0"), m, false); err != nil {
		t.Fatal(err)
	}
	pe0, pe1 := &pe.CounterLogic{Pad: 1, HotSlots: 5}, &pe.CounterLogic{Pad: 1, HotSlots: 5}
	for i := int64(1); i <= 7; i++ {
		pe0.Process(element.Element{ID: uint64(i), Payload: 10 * i}, func(element.Element) {})
		pe1.Process(element.Element{ID: uint64(i), Payload: i}, func(element.Element) {})
	}
	if err := donor.Restore(&subjob.Snapshot{
		SubjobID: "j/sj.p0",
		Consumed: map[string]uint64{"a": 9, "b": 4},
		PEStates: [][]byte{pe0.Snapshot(), pe1.Snapshot()},
		Pipes:    [][]element.Element{{{ID: 101, Key: 3, Payload: 7}, {ID: 102, Key: 5, Payload: 8}}},
		Output: queue.OutputSnapshot{StreamID: "out.p0", Floor: 30, NextSeq: 41,
			Buf: []element.Element{{ID: 900, Seq: 31}, {ID: 901, Seq: 32}}},
	}); err != nil {
		t.Fatal(err)
	}

	if recv, err = subjob.New(transferSpec("j/sj.p2", "out.p2"), m, true); err != nil {
		t.Fatal(err)
	}
	recv.Out().Publish([]element.Element{{ID: 1}, {ID: 2}, {ID: 3}})
	return donor, recv
}

// advanceDonor lets the donor's PEs process n more elements and consume
// further on both streams, as a donor serving between sync rounds does.
func advanceDonor(donor *subjob.Runtime, n int) {
	for k, p := range donor.PEs() {
		for i := 0; i < n; i++ {
			p.Logic().Process(element.Element{ID: uint64(1000 + i), Payload: int64(k + i)}, func(element.Element) {})
		}
	}
	pos := donor.ConsumedPositions()
	pos["a"] += uint64(n)
	pos["b"] += uint64(2 * n)
	donor.PEs()[0].SetConsumedPositions(pos)
}

// transferRow renders what the receiver holds: each PE's state bytes, the
// pipe, the consumed positions and input dedup floor per stream, and its own
// output queue.
func transferRow(name string, recv *subjob.Runtime) string {
	s := recv.Snapshot()
	var b strings.Builder
	b.WriteString(name + ":")
	for i, st := range s.PEStates {
		fmt.Fprintf(&b, " pe%d=%s", i, hex.EncodeToString(st))
	}
	for i, p := range s.Pipes {
		fmt.Fprintf(&b, " pipe%d=[", i)
		for _, e := range p {
			fmt.Fprintf(&b, " %d/%d/%d/%d/%d", e.ID, e.Key, e.Origin, e.Payload, e.Seq)
		}
		b.WriteString(" ]")
	}
	var consumed []string
	for st, v := range s.Consumed {
		consumed = append(consumed, fmt.Sprintf("%s:%d", st, v))
	}
	sort.Strings(consumed)
	fmt.Fprintf(&b, " consumed={%s} floor={a:%d b:%d} | out next=%d floor=%d len=%d stream=%s",
		strings.Join(consumed, " "),
		recv.In().Accepted("a"), recv.In().Accepted("b"),
		recv.Out().NextSeq(), recv.Out().Floor(), recv.Out().Len(), s.Output.StreamID)
	return b.String()
}

// TestRescaleTransferCharacterisation pins what a live rescale's state
// sync leaves in the new instance: a full round, then two delta rounds with
// the donor serving in between. The receiver takes over every PE's state,
// the pipe, the consumed positions and the dedup floor they imply, and
// keeps its own output queue and sequence space. The rows were recorded
// when the runtime had dedicated appliers for a donor's snapshot and
// deltas; the rounds now travel as checkpoint payloads into the one fold.
func TestRescaleTransferCharacterisation(t *testing.T) {
	donor, recv := transferRig(t)
	rows := []string{transferRow("before", recv)}

	// Each round travels as a live rescale ships it: addressed to the
	// receiver, encoded, and folded through the one copy fold.
	ship := func(d *subjob.Delta) {
		t.Helper()
		d.SubjobID = recv.Spec().ID
		payload, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if out := core.Fold(recv, payload); out != checkpoint.Folded {
			t.Fatalf("fold outcome %d", out)
		}
	}
	ship(donor.CaptureFull().AsDelta())
	rows = append(rows, transferRow("full", recv))

	for r := 1; r <= 2; r++ {
		advanceDonor(donor, 3*r)
		d, ok := donor.CaptureDelta(subjob.DeltaOptions{OnlyPE: -1})
		if !ok {
			t.Fatal("donor cannot express a delta")
		}
		ship(d)
		rows = append(rows, transferRow(fmt.Sprintf("delta %d", r), recv))
	}

	want := []string{
		"before: pe0=0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 pe1=0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 pipe0=[ ] consumed={} floor={a:0 b:0} | out next=4 floor=0 len=3 stream=out.p2",
		"full: pe0=0000000000000007000000000000011800000000000000050000000000000006000000000000000700000000000000030000000000000004 pe1=0000000000000007000000000000001c00000000000000050000000000000006000000000000000700000000000000030000000000000004 pipe0=[ 101/3/0/7/0 102/5/0/8/0 ] consumed={a:9 b:4} floor={a:9 b:4} | out next=4 floor=0 len=3 stream=out.p2",
		"delta 1: pe0=000000000000000a000000000000011b000000000000000a0000000000000006000000000000000700000000000000080000000000000009 pe1=000000000000000a0000000000000022000000000000000a0000000000000006000000000000000700000000000000080000000000000009 pipe0=[ 101/3/0/7/0 102/5/0/8/0 ] consumed={a:12 b:10} floor={a:12 b:10} | out next=4 floor=0 len=3 stream=out.p2",
		"delta 2: pe0=0000000000000010000000000000012a000000000000000f0000000000000010000000000000000c000000000000000d000000000000000e pe1=00000000000000100000000000000037000000000000000f0000000000000010000000000000000c000000000000000d000000000000000e pipe0=[ 101/3/0/7/0 102/5/0/8/0 ] consumed={a:18 b:22} floor={a:18 b:22} | out next=4 floor=0 len=3 stream=out.p2",
	}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "\t\t%q,\n", r)
		}
		t.Errorf("transfer differs from the recorded one:\n%s", b.String())
	}
}
