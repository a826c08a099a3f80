package cluster

import (
	"testing"
	"time"

	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/sched"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

func TestAddMachineAndLookup(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	m, err := cl.addMachine("a")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Machine("a") != m || cl.Machine("zzz") != nil {
		t.Fatal("lookup broken")
	}
	if _, err := cl.addMachine("a"); err == nil {
		t.Fatal("duplicate machine accepted")
	}
	cl.MustAddMachine("b")
	if got := len(cl.Machines()); got != 2 {
		t.Fatalf("machines %d", got)
	}
}

func TestMustAddMachinePanicsOnDuplicate(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	cl.MustAddMachine("a")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	cl.MustAddMachine("a")
}

func TestSourceEmitsAtConfiguredRate(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	m := cl.MustAddMachine("src")
	s := NewSource(SourceConfig{
		Machine: m,
		Clock:   cl.Clock(),
		Stream:  "s0",
		Rate:    2000,
	})
	s.Start()
	time.Sleep(500 * time.Millisecond)
	s.Stop()
	got := float64(s.Emitted())
	if got < 800 || got > 1300 {
		t.Fatalf("emitted %v in 0.5s at 2000/s", got)
	}
}

func TestSourceElementsDeterministic(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	m := cl.MustAddMachine("src")
	var first []element.Element
	s := NewSource(SourceConfig{Machine: m, Clock: cl.Clock(), Stream: "s0", Rate: 5000})
	s.Out().Subscribe("nowhere", "x", false)
	s.Start()
	time.Sleep(50 * time.Millisecond)
	s.Stop()
	snap := s.Out().Snapshot()
	first = snap.Buf
	if len(first) == 0 {
		t.Fatal("nothing retained")
	}
	for i, e := range first {
		if e.ID != uint64(i+1) || e.Seq != uint64(i+1) {
			t.Fatalf("element %d: %+v (IDs must be dense from 1)", i, e)
		}
	}
}

func TestSourceBurstShaping(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	m := cl.MustAddMachine("src")
	s := NewSource(SourceConfig{
		Machine:  m,
		Clock:    cl.Clock(),
		Stream:   "s0",
		Rate:     1000,
		BurstOn:  20 * time.Millisecond,
		BurstOff: 20 * time.Millisecond,
	})
	s.Start()
	time.Sleep(400 * time.Millisecond)
	s.Stop()
	// Bursting preserves the average rate (factor defaults to on+off/on).
	got := float64(s.Emitted())
	if got < 250 || got > 550 {
		t.Fatalf("bursty source emitted %v in 0.4s at avg 1000/s", got)
	}
}

func TestSinkRecordsDelaysAndAcks(t *testing.T) {
	cl := New(Config{Latency: 100 * time.Microsecond})
	defer cl.Close()
	sinkM := cl.MustAddMachine("sink")
	upM := cl.MustAddMachine("up-copy")

	sink := NewSink(SinkConfig{
		Machine:     sinkM,
		Clock:       cl.Clock(),
		ID:          "j/sink",
		InStreams:   []string{"s1"},
		Owners:      map[string]string{"s1": "j/sj0"},
		AckInterval: 10 * time.Millisecond,
		TrackIDs:    true,
	})
	sink.Start()
	defer sink.Stop()

	acks := make(chan uint64, 16)
	upM.RegisterStream(subjob.AckStream("j/sj0", "s1"), func(_ transport.NodeID, msg transport.Message) {
		acks <- msg.Seq
	})

	origin := cl.Clock().Now().Add(-5 * time.Millisecond).UnixNano()
	upM.Send(sinkM.ID(), transport.Message{
		Kind:   transport.KindData,
		Stream: subjob.DataStream("j/sink", "s1"),
		Elements: []element.Element{
			{ID: 1, Seq: 1, Origin: origin},
			{ID: 2, Seq: 2, Origin: origin},
		},
	})

	deadline := time.Now().Add(2 * time.Second)
	for sink.Received() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.Received() != 2 {
		t.Fatalf("received %d", sink.Received())
	}
	if sink.Delays().Count() != 2 || sink.Delays().Mean() < 5*time.Millisecond {
		t.Fatalf("delays count=%d mean=%v", sink.Delays().Count(), sink.Delays().Mean())
	}
	if counts := sink.IDCounts(); counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("id counts %v", counts)
	}
	select {
	case seq := <-acks:
		if seq != 2 {
			t.Fatalf("ack %d", seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sink never acked")
	}
}

// TestSinkAcksAddedInput checks that a stream attached by AddInput is
// acknowledged on its own owner's ack stream: the name is built when the
// input is registered, not when the ack is sent.
func TestSinkAcksAddedInput(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	sinkM := cl.MustAddMachine("sink")
	upM := cl.MustAddMachine("up-copy")

	sink := NewSink(SinkConfig{
		Machine:     sinkM,
		Clock:       cl.Clock(),
		ID:          "j/sink",
		InStreams:   []string{"s1"},
		Owners:      map[string]string{"s1": "j/sj0"},
		AckInterval: 2 * time.Millisecond,
	})
	sink.AddInput("s2", "j/sj0#1")
	sink.Start()
	defer sink.Stop()

	type ack struct {
		stream string
		seq    uint64
	}
	acks := make(chan ack, 64) // a full buffer drops acks; every tick repeats them
	for _, stream := range []string{subjob.AckStream("j/sj0", "s1"), subjob.AckStream("j/sj0#1", "s2")} {
		upM.RegisterStream(stream, func(_ transport.NodeID, msg transport.Message) {
			select {
			case acks <- ack{stream, msg.Seq}:
			default:
			}
		})
	}
	upM.Send(sinkM.ID(), transport.Message{
		Kind:     transport.KindData,
		Stream:   subjob.DataStream("j/sink", "s1"),
		Elements: []element.Element{{ID: 1, Seq: 1}},
	})
	upM.Send(sinkM.ID(), transport.Message{
		Kind:     transport.KindData,
		Stream:   subjob.DataStream("j/sink", "s2"),
		Elements: []element.Element{{ID: 2, Seq: 1}, {ID: 3, Seq: 2}},
	})
	want := map[string]uint64{subjob.AckStream("j/sj0", "s1"): 1, subjob.AckStream("j/sj0#1", "s2"): 2}
	timeout := time.After(2 * time.Second)
	for len(want) > 0 {
		select {
		case a := <-acks:
			if seq, ok := want[a.stream]; ok && a.seq == seq {
				delete(want, a.stream)
			}
		case <-timeout:
			t.Fatalf("no ack for %v", want)
		}
	}
}

func TestSinkDeduplicatesReplicaDelivery(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	sinkM := cl.MustAddMachine("sink")
	a := cl.MustAddMachine("copy-a")
	b := cl.MustAddMachine("copy-b")

	sink := NewSink(SinkConfig{
		Machine:   sinkM,
		Clock:     cl.Clock(),
		ID:        "j/sink",
		InStreams: []string{"s1"},
		Owners:    map[string]string{"s1": "j/sj0"},
		TrackIDs:  true,
	})
	sink.Start()
	defer sink.Stop()

	batch := []element.Element{{ID: 1, Seq: 1}, {ID: 2, Seq: 2}}
	msg := transport.Message{Kind: transport.KindData, Stream: subjob.DataStream("j/sink", "s1"), Elements: batch}
	a.Send(sinkM.ID(), msg)
	b.Send(sinkM.ID(), msg) // active-standby duplicate

	deadline := time.Now().Add(time.Second)
	for sink.Received() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if sink.Received() != 2 {
		t.Fatalf("received %d, want 2 after dedup", sink.Received())
	}
	dups, gaps := sink.In().Drops()
	if dups != 2 || gaps != 0 {
		t.Fatalf("dups=%d gaps=%d", dups, gaps)
	}
}

func TestSinkOnArrivalCallback(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	sinkM := cl.MustAddMachine("sink")
	up := cl.MustAddMachine("up")
	sink := NewSink(SinkConfig{
		Machine:   sinkM,
		Clock:     cl.Clock(),
		ID:        "j/sink",
		InStreams: []string{"s1"},
		Owners:    map[string]string{"s1": "o"},
	})
	got := make(chan element.Element, 4)
	sink.SetOnArrival(func(e element.Element, _ time.Time) { got <- e })
	sink.Start()
	defer sink.Stop()
	up.Send(sinkM.ID(), transport.Message{
		Kind: transport.KindData, Stream: subjob.DataStream("j/sink", "s1"),
		Elements: []element.Element{{ID: 9, Seq: 1}},
	})
	select {
	case e := <-got:
		if e.ID != 9 {
			t.Fatalf("element %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never fired")
	}
}

func TestRemoveMachineFreesID(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	cl.MustAddMachine("a")
	cl.MustAddMachine("b")
	if err := cl.RemoveMachine("a"); err != nil {
		t.Fatalf("RemoveMachine: %v", err)
	}
	if cl.Machine("a") != nil {
		t.Fatal("removed machine still resolvable")
	}
	if got := len(cl.Machines()); got != 1 {
		t.Fatalf("machines after removal: %d", got)
	}
	if err := cl.RemoveMachine("a"); err == nil {
		t.Fatal("double removal accepted")
	}
	// The id is free for reuse, and Close stays safe afterwards.
	if _, err := cl.addMachine("a"); err != nil {
		t.Fatalf("re-adding removed id: %v", err)
	}
	if err := cl.RemoveMachine("a"); err != nil {
		t.Fatalf("removing re-added machine: %v", err)
	}
}

func TestFaultDomains(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	cl.MustAddMachineIn("w1", "rack-a")
	cl.MustAddMachine("w2")
	if got := cl.Domain("w1"); got != "rack-a" {
		t.Fatalf("domain(w1) = %q", got)
	}
	// Unlabeled machines live in a fault domain of their own.
	if got := cl.Domain("w2"); got != "w2" {
		t.Fatalf("domain(w2) = %q", got)
	}
	if got := cl.Domain("ghost"); got != "" {
		t.Fatalf("domain(ghost) = %q", got)
	}
}

func TestCrashRecoverDrivesSchedulerMembership(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	reps := []*machine.Machine{cl.MustAddMachine("sched-a")}
	s, err := sched.New(sched.Config{Clock: cl.Clock(), Replicas: reps, Tick: 5 * time.Millisecond, ElectionTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	cl.BindScheduler(s, 2)
	cl.MustAddMachineIn("w1", "rack-a")
	cl.MustAddMachineIn("w2", "rack-b")

	st := s.Stats()
	if st.Members != 2 || st.MembersUp != 2 {
		t.Fatalf("members = %d/%d up, want 2/2 (replica host must stay outside the pool)", st.MembersUp, st.Members)
	}
	if st.Domains["rack-a"].Capacity != 2 {
		t.Fatalf("rack-a capacity = %d, want 2", st.Domains["rack-a"].Capacity)
	}

	if err := cl.CrashMachine("w1"); err != nil {
		t.Fatal(err)
	}
	if !cl.Machine("w1").Crashed() {
		t.Fatal("machine not crashed")
	}
	if st := s.Stats(); st.MembersUp != 1 {
		t.Fatalf("members up after crash = %d, want 1", st.MembersUp)
	}
	if err := cl.RecoverMachine("w1"); err != nil {
		t.Fatal(err)
	}
	if cl.Machine("w1").Crashed() {
		t.Fatal("machine still crashed")
	}
	if st := s.Stats(); st.MembersUp != 2 {
		t.Fatalf("members up after recovery = %d, want 2", st.MembersUp)
	}
	if err := cl.RemoveMachine("w2"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MembersUp != 1 {
		t.Fatalf("members up after removal = %d, want 1", st.MembersUp)
	}
}

func TestClusterStatsAccumulate(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	a := cl.MustAddMachine("a")
	cl.MustAddMachine("b")
	a.Send("b", transport.Message{Kind: transport.KindData, Elements: make([]element.Element, 3)})
	if got := cl.Stats().DataElements(); got != 3 {
		t.Fatalf("stats %d", got)
	}
}
