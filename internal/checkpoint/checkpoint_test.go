package checkpoint

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

// rig is a primary runtime plus a secondary-machine store and an upstream
// machine that records acknowledgments.
type rig struct {
	net   *transport.Mem
	clk   clock.Clock
	priM  *machine.Machine
	secM  *machine.Machine
	upM   *machine.Machine
	rt    *subjob.Runtime
	store *Store
	acks  chan uint64
}

func newRig(t *testing.T, backend StoreBackend) *rig {
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
	upM, err := machine.New("up1", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	spec := subjob.Spec{
		JobID:     "j",
		ID:        "j/sj",
		InStreams: []string{"in"},
		Owners:    map[string]string{"in": "up"},
		OutStream: "out",
		BatchSize: 8,
		PEs: []subjob.PESpec{
			{Name: "a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 5} }},
		},
	}
	rt, err := subjob.New(spec, priM, false)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	r := &rig{net: net, clk: clk, priM: priM, secM: secM, upM: upM, rt: rt, acks: make(chan uint64, 64)}
	r.store = NewStore(secM, spec.ID, &Image{}, StoreOptions{Backend: backend})
	t.Cleanup(r.store.Close)
	upM.RegisterStream(subjob.AckStream("up", "in"), func(_ transport.NodeID, msg transport.Message) {
		r.acks <- msg.Seq
	})
	return r
}

func (r *rig) feed(t *testing.T, from, to uint64) {
	t.Helper()
	r.feedRuntime(t, r.rt, from, to)
}

// feedRuntime sends elements from..to to rt (a copy on the rig's primary
// machine) and waits until its first PE has processed them.
func (r *rig) feedRuntime(t *testing.T, rt *subjob.Runtime, from, to uint64) {
	t.Helper()
	batch := make([]element.Element, 0, to-from+1)
	for s := from; s <= to; s++ {
		batch = append(batch, element.Element{ID: s, Seq: s, Payload: int64(s)})
	}
	r.upM.Send(r.priM.ID(), transport.Message{
		Kind:     transport.KindData,
		Stream:   subjob.DataStream(rt.Spec().ID, "in"),
		Elements: batch,
	})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rt.PEs()[0].Processed() >= to {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("feed: processed %d, want %d", rt.PEs()[0].Processed(), to)
}

func (r *rig) expectAck(t *testing.T, want uint64) {
	t.Helper()
	select {
	case seq := <-r.acks:
		if seq != want {
			t.Fatalf("ack %d, want %d", seq, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no upstream ack after checkpoint stored")
	}
}

func TestSweepingCheckpointStoresAndAcks(t *testing.T) {
	r := newRig(t, InMemory)
	cm := NewSweeping(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()

	r.feed(t, 1, 10)
	if paused := cm.CheckpointNow(); paused <= 0 {
		t.Fatal("no pause measured")
	}
	r.expectAck(t, 10)

	snap, ok := r.store.Latest()
	if !ok {
		t.Fatal("store holds nothing")
	}
	if snap.Consumed["in"] != 10 {
		t.Fatalf("stored consumed %v", snap.Consumed)
	}
	if cm.Taken() != 1 || r.store.Stored() != 1 {
		t.Fatalf("taken=%d stored=%d", cm.Taken(), r.store.Stored())
	}
	if cm.MeanPause() <= 0 {
		t.Fatal("no pause stats")
	}
}

func TestSweepingExcludesInputQueue(t *testing.T) {
	r := newRig(t, InMemory)
	cm := NewSweeping(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()
	r.feed(t, 1, 5)
	cm.CheckpointNow()
	r.expectAck(t, 5)
	snap, _ := r.store.Latest()
	if len(snap.Input) != 0 {
		t.Fatalf("sweeping checkpoint carried %d input elements", len(snap.Input))
	}
}

func TestSweepingTrimTriggersCheckpoint(t *testing.T) {
	r := newRig(t, InMemory)
	cm := NewSweeping(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()

	// A downstream subscriber acks, trimming the output queue; sweeping
	// must checkpoint immediately without waiting for the timer.
	r.rt.Out().Subscribe("down", "x", true)
	r.feed(t, 1, 6)
	r.rt.Out().Ack("down", 3)

	deadline := time.Now().Add(2 * time.Second)
	for cm.Taken() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cm.Taken() == 0 {
		t.Fatal("trim did not trigger a checkpoint")
	}
}

func TestSweepingSkipsCrashedMachine(t *testing.T) {
	r := newRig(t, InMemory)
	cm := NewSweeping(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()
	r.priM.Crash()
	if cm.CheckpointNow() != 0 {
		t.Fatal("checkpointed a crashed machine")
	}
}

func TestSynchronousIncludesInputQueueAndAcksAccepted(t *testing.T) {
	r := newRig(t, InMemory)
	// Pause the PE so pushed data stays in the input queue.
	r.rt.PauseAll()
	batch := make([]element.Element, 5)
	for i := range batch {
		batch[i] = element.Element{ID: uint64(i + 1), Seq: uint64(i + 1)}
	}
	r.upM.Send(r.priM.ID(), transport.Message{
		Kind: transport.KindData, Stream: subjob.DataStream("j/sj", "in"), Elements: batch,
	})
	deadline := time.Now().Add(time.Second)
	for r.rt.In().Len() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	cm := NewSynchronous(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()
	cm.CheckpointNow()
	// Synchronous acks the accepted position (input is in the checkpoint),
	// even though nothing was processed.
	r.expectAck(t, 5)
	snap, _ := r.store.Latest()
	if len(snap.Input) != 5 {
		t.Fatalf("synchronous checkpoint carried %d input elements, want 5", len(snap.Input))
	}
	r.rt.ResumeAll()
}

func TestIndividualEmitsPerPEMessages(t *testing.T) {
	r := newRig(t, InMemory)
	cm := NewIndividual(Config{Runtime: r.rt, Clock: r.clk, Interval: 20 * time.Millisecond, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()
	r.feed(t, 1, 4)
	deadline := time.Now().Add(2 * time.Second)
	for cm.Taken() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cm.Taken() < 2 {
		t.Fatalf("individual checkpoints %d", cm.Taken())
	}
}

func TestStoreDiskBackendSlowerThanMemory(t *testing.T) {
	r := newRig(t, SimulatedDisk)
	cm := NewSweeping(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()
	r.feed(t, 1, 3)
	start := time.Now()
	cm.CheckpointNow()
	r.expectAck(t, 3)
	if elapsed := time.Since(start); elapsed < DefaultDiskLatency {
		t.Fatalf("disk store acked in %v, faster than the disk write", elapsed)
	}
	// Reads also pay latency.
	start = time.Now()
	if _, ok := r.store.Latest(); !ok {
		t.Fatal("nothing stored")
	}
	if elapsed := time.Since(start); elapsed < DefaultDiskLatency/2 {
		t.Fatalf("disk read took %v", elapsed)
	}
}

func TestStoreKeepsLatestBySeq(t *testing.T) {
	r := newRig(t, InMemory)
	cm := NewSweeping(Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()})
	cm.Start()
	defer cm.Stop()
	r.feed(t, 1, 4)
	cm.CheckpointNow()
	r.expectAck(t, 4)
	r.feed(t, 5, 9)
	cm.CheckpointNow()
	r.expectAck(t, 9)
	snap, _ := r.store.Latest()
	if snap.Consumed["in"] != 9 {
		t.Fatalf("latest snapshot consumed %v", snap.Consumed)
	}
}

func TestAckerAcksProcessedPositions(t *testing.T) {
	r := newRig(t, InMemory)
	acker := NewAcker(r.rt, r.clk, 10*time.Millisecond)
	acker.Start()
	defer acker.Stop()
	r.feed(t, 1, 7)
	r.expectAck(t, 7)
}

func TestAckerSkipsSuspendedRuntime(t *testing.T) {
	r := newRig(t, InMemory)
	r.feed(t, 1, 3)
	r.rt.Suspend()
	acker := NewAcker(r.rt, r.clk, 5*time.Millisecond)
	acker.Start()
	defer acker.Stop()
	select {
	case seq := <-r.acks:
		t.Fatalf("suspended runtime acked %d", seq)
	case <-time.After(40 * time.Millisecond):
	}
}

func TestCostsDefaulting(t *testing.T) {
	c := Costs{}.orDefault()
	if c != DefaultCosts {
		t.Fatalf("got %+v", c)
	}
	custom := Costs{Base: time.Millisecond}
	if got := custom.orDefault(); got != custom {
		t.Fatalf("custom overridden: %+v", got)
	}
}
