package subjob

import (
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/transport"
)

func testSpec(id string) Spec {
	return Spec{
		JobID:     "j",
		ID:        id,
		InStreams: []string{"in"},
		Owners:    map[string]string{"in": "up"},
		OutStream: "out",
		BatchSize: 8,
		PEs: []PESpec{
			{Name: "a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 2} }},
			{Name: "b", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 2} }},
		},
	}
}

func testRuntime(t *testing.T, suspended bool) (*Runtime, *machine.Machine, *transport.Mem) {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	m, err := machine.New("m1", clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(testSpec("j/sj"), m, suspended)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt, m, net
}

func feed(t *testing.T, net *transport.Mem, to transport.NodeID, sj string, from, toSeq uint64) {
	t.Helper()
	srcM, err := machine.New("feeder-"+string(to)+sj, clock.New(), net)
	if err != nil {
		// Feeder may exist from a previous call in the same test.
		t.Fatalf("feeder: %v", err)
	}
	batch := make([]element.Element, 0, toSeq-from+1)
	for s := from; s <= toSeq; s++ {
		batch = append(batch, element.Element{ID: s, Seq: s, Payload: int64(s)})
	}
	srcM.Send(to, transport.Message{
		Kind:     transport.KindData,
		Stream:   DataStream(sj, "in"),
		Elements: batch,
	})
}

func waitProcessed(t *testing.T, rt *Runtime, n uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rt.PEs()[0].Processed() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out: processed %d, want %d", rt.PEs()[0].Processed(), n)
}

func TestRuntimeProcessesAndPublishes(t *testing.T) {
	rt, _, net := testRuntime(t, false)
	feed(t, net, "m1", "j/sj", 1, 10)
	waitProcessed(t, rt, 10)
	// The output queue retains all 10 (no acks yet).
	deadline := time.Now().Add(time.Second)
	for rt.Out().Len() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rt.Out().Len() != 10 {
		t.Fatalf("output retained %d", rt.Out().Len())
	}
}

func TestRuntimeSuspendedProcessesNothing(t *testing.T) {
	rt, _, net := testRuntime(t, true)
	feed(t, net, "m1", "j/sj", 1, 10)
	time.Sleep(30 * time.Millisecond)
	if got := rt.PEs()[0].Processed(); got != 0 {
		t.Fatalf("suspended runtime processed %d", got)
	}
	if !rt.Suspended() {
		t.Fatal("not suspended")
	}
	rt.Resume()
	waitProcessed(t, rt, 10)
}

func TestSnapshotRestoreRoundTripThroughEncoding(t *testing.T) {
	rt, _, net := testRuntime(t, false)
	feed(t, net, "m1", "j/sj", 1, 10)
	waitProcessed(t, rt, 10)

	rt.PauseAll()
	snap := rt.Snapshot()
	rt.ResumeAll()

	if snap.Consumed["in"] != 10 {
		t.Fatalf("consumed %v", snap.Consumed)
	}
	if snap.ElementUnits() < 10+4 { // 10 retained outputs + 2 PEs × pad 2
		t.Fatalf("element units %d", snap.ElementUnits())
	}

	encoded, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(encoded)
	if err != nil {
		t.Fatal(err)
	}

	// A suspended standby copy on another machine adopts the snapshot.
	m2, err := machine.New("m2", clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := New(testSpec("j/sj"), m2, true)
	if err != nil {
		t.Fatal(err)
	}
	standby.Start()
	defer standby.Stop()
	if err := standby.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if standby.ConsumedPositions()["in"] != 10 {
		t.Fatal("restored consumed positions wrong")
	}
	if standby.In().Accepted("in") != 10 {
		t.Fatal("input dedup mark not aligned")
	}
	if standby.Out().Len() != 10 {
		t.Fatalf("restored output retained %d", standby.Out().Len())
	}
}

func TestRestoreRejectsWrongSubjob(t *testing.T) {
	rt, _, _ := testRuntime(t, true)
	if err := rt.Restore(&Snapshot{SubjobID: "other"}); err == nil {
		t.Fatal("want mismatch error")
	}
}

func TestAckRoutesToRecentSenders(t *testing.T) {
	net := transport.NewMem(transport.MemConfig{})
	defer net.Close()
	m, err := machine.New("m1", clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(testSpec("j/sj"), m, false)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	// An upstream copy that records acks it receives.
	upM, err := machine.New("up1", clock.New(), net)
	if err != nil {
		t.Fatal(err)
	}
	acks := make(chan uint64, 16)
	upM.RegisterStream(AckStream("up", "in"), func(_ transport.NodeID, msg transport.Message) {
		acks <- msg.Seq
	})
	upM.Send("m1", transport.Message{
		Kind:     transport.KindData,
		Stream:   DataStream("j/sj", "in"),
		Elements: []element.Element{{ID: 1, Seq: 1}, {ID: 2, Seq: 2}},
	})
	waitProcessed(t, rt, 2)

	rt.AckUpstream(rt.ConsumedPositions())
	select {
	case seq := <-acks:
		if seq != 2 {
			t.Fatalf("ack seq %d", seq)
		}
	case <-time.After(time.Second):
		t.Fatal("no ack routed to the sender")
	}
}

func TestAckUpstreamSkipsZeroPositions(t *testing.T) {
	rt, _, _ := testRuntime(t, false)
	// No data consumed: ack of zero would trim nothing and is suppressed.
	rt.AckUpstream(map[string]uint64{"in": 0}) // must not panic or send
}

func TestWithPausedSerializesWithSuspend(t *testing.T) {
	rt, _, net := testRuntime(t, false)
	feed(t, net, "m1", "j/sj", 1, 8)
	waitProcessed(t, rt, 8)

	done := make(chan struct{})
	go func() {
		rt.WithPaused(func() {
			time.Sleep(20 * time.Millisecond)
		})
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	rt.Suspend() // must wait for WithPaused to finish, then keep it parked
	select {
	case <-done:
	default:
		t.Fatal("Suspend returned while WithPaused still held the lock")
	}
	if !rt.Suspended() {
		t.Fatal("not suspended")
	}
}

func TestSuspendAndSnapshotAtomicity(t *testing.T) {
	rt, _, net := testRuntime(t, false)
	feed(t, net, "m1", "j/sj", 1, 8)
	waitProcessed(t, rt, 8)
	snap := rt.SuspendAndSnapshot()
	if snap == nil || snap.Consumed["in"] != 8 {
		t.Fatalf("snapshot %+v", snap)
	}
	if !rt.Suspended() {
		t.Fatal("not suspended after SuspendAndSnapshot")
	}
}

func TestBacklogCountsQueuedWork(t *testing.T) {
	rt, _, net := testRuntime(t, true) // suspended: input accumulates
	feed(t, net, "m1", "j/sj", 1, 10)
	deadline := time.Now().Add(time.Second)
	for rt.Backlog() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rt.Backlog() != 10 {
		t.Fatalf("backlog %d", rt.Backlog())
	}
}

func TestStreamNameHelpers(t *testing.T) {
	if DataStream("sj", "s") != "data|sj|s" || AckStream("o", "s") != "ack|o|s" {
		t.Fatal("stream naming changed")
	}
	parts := parseStream("a|b|c")
	if len(parts) != 3 || parts[1] != "b" {
		t.Fatalf("parts %v", parts)
	}
	if CkptStream("x") == CkptAckStream("x") {
		t.Fatal("checkpoint streams collide")
	}
}

func TestNewRejectsEmptyPEs(t *testing.T) {
	net := transport.NewMem(transport.MemConfig{})
	defer net.Close()
	m, _ := machine.New("m1", clock.New(), net)
	if _, err := New(Spec{ID: "x"}, m, false); err == nil {
		t.Fatal("want error for empty PE list")
	}
}
