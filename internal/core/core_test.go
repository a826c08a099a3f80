package core

import (
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

func TestPositionsCover(t *testing.T) {
	cases := []struct {
		standby, primary map[string]uint64
		want             bool
	}{
		{map[string]uint64{"a": 10}, map[string]uint64{"a": 10}, true},
		{map[string]uint64{"a": 11}, map[string]uint64{"a": 10}, true},
		{map[string]uint64{"a": 9}, map[string]uint64{"a": 10}, false},
		{map[string]uint64{}, map[string]uint64{"a": 1}, false},
		{map[string]uint64{"a": 5}, map[string]uint64{}, true},
		{nil, nil, true},
	}
	for i, c := range cases {
		if got := positionsCover(c.standby, c.primary); got != c.want {
			t.Fatalf("case %d: got %v", i, got)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MissThreshold != 1 {
		t.Fatalf("hybrid default miss threshold %d, want 1 (first-miss trigger)", o.MissThreshold)
	}
	if o.HeartbeatInterval <= 0 || o.CheckpointInterval <= 0 || resumeCost <= 0 {
		t.Fatal("intervals not defaulted")
	}
	if resumeCost*3 > deployCost {
		t.Fatalf("resume (%v) should be about a quarter of deploy (%v)", resumeCost, deployCost)
	}
	keep := Options{MissThreshold: 3, HeartbeatInterval: time.Second}.withDefaults()
	if keep.MissThreshold != 3 || keep.HeartbeatInterval != time.Second {
		t.Fatal("explicit options overridden")
	}
}

type standbyRig struct {
	net  *transport.Mem
	priM *machine.Machine
	secM *machine.Machine
	sec  *subjob.Runtime
}

func newStandbyRig(t *testing.T) *standbyRig {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	priM, err := machine.New("pri", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	secM, err := machine.New("sec", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	spec := subjob.Spec{
		JobID:     "j",
		ID:        "j/sj",
		InStreams: []string{"in"},
		Owners:    map[string]string{"in": "up"},
		OutStream: "out",
		PEs: []subjob.PESpec{
			{Name: "a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 1} }},
		},
	}
	sec, err := subjob.New(spec, secM, true)
	if err != nil {
		t.Fatal(err)
	}
	sec.Start()
	t.Cleanup(sec.Stop)
	return &standbyRig{net: net, priM: priM, secM: secM, sec: sec}
}

// sendCheckpoint ships a snapshot with the given consumed position to the
// standby store and returns the ack channel.
func (r *standbyRig) sendCheckpoint(t *testing.T, seq uint64, consumed uint64) chan uint64 {
	t.Helper()
	acks := make(chan uint64, 8)
	r.priM.RegisterStream(subjob.CkptAckStream("j/sj"), func(_ transport.NodeID, msg transport.Message) {
		acks <- msg.Seq
	})
	snap := &subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": consumed},
		PEStates: [][]byte{(&pe.CounterLogic{Pad: 1}).Snapshot()},
		Pipes:    [][]element.Element{},
		Output:   r.sec.Out().Snapshot(),
	}
	state, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r.priM.Send(r.secM.ID(), transport.Message{
		Kind:         transport.KindCheckpoint,
		Stream:       subjob.CkptStream("j/sj"),
		Seq:          seq,
		State:        state,
		ElementCount: snap.ElementUnits(),
	})
	return acks
}

func expectAck(t *testing.T, acks chan uint64, want uint64) {
	t.Helper()
	select {
	case got := <-acks:
		if got != want {
			t.Fatalf("ack %d, want %d", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no checkpoint ack")
	}
}

func TestStandbyStoreAppliesWhileSuspended(t *testing.T) {
	r := newStandbyRig(t)
	store := newStandbyStore(r.sec)
	defer store.Close()

	acks := r.sendCheckpoint(t, 1, 42)
	expectAck(t, acks, 1)
	deadline := time.Now().Add(time.Second)
	for store.Applied() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if store.Applied() != 1 {
		t.Fatalf("applied %d", store.Applied())
	}
	if got := r.sec.ConsumedPositions()["in"]; got != 42 {
		t.Fatalf("standby position %d, want 42 (in-memory refresh)", got)
	}
}

func TestStandbyStoreSkipsWhileActive(t *testing.T) {
	r := newStandbyRig(t)
	store := newStandbyStore(r.sec)
	defer store.Close()
	r.sec.Resume() // activated: live state supersedes checkpoints

	acks := r.sendCheckpoint(t, 1, 99)
	expectAck(t, acks, 1) // still acknowledged so trims proceed upstream
	deadline := time.Now().Add(time.Second)
	for store.Stats().Skipped == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if store.Stats().Skipped != 1 || store.Applied() != 0 {
		t.Fatalf("skipped=%d applied=%d", store.Stats().Skipped, store.Applied())
	}
	if got := r.sec.ConsumedPositions()["in"]; got != 0 {
		t.Fatalf("active standby was overwritten: position %d", got)
	}
}

func TestStandbyStoreIgnoresGarbage(t *testing.T) {
	r := newStandbyRig(t)
	store := newStandbyStore(r.sec)
	defer store.Close()
	r.priM.Send(r.secM.ID(), transport.Message{
		Kind:   transport.KindCheckpoint,
		Stream: subjob.CkptStream("j/sj"),
		Seq:    1,
		State:  []byte("not a snapshot"),
	})
	time.Sleep(20 * time.Millisecond)
	if store.Applied() != 0 {
		t.Fatal("garbage applied")
	}
}
