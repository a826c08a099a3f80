package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// putCatalogChain seeds cat with a full checkpoint at seq 1 (consumed 40)
// and a chaining delta at seq 2 (consumed 50) for j/sj, mimicking what a
// persisting store left behind before the process died.
func putCatalogChain(t *testing.T, cat *checkpoint.Catalog) {
	t.Helper()
	snap := &subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": 40},
		PEStates: [][]byte{(&pe.CounterLogic{Pad: 1}).Snapshot()},
		Pipes:    [][]element.Element{},
		Output:   queue.OutputSnapshot{StreamID: "out", NextSeq: 1},
	}
	payload, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Put("j/sj", 1, snap.ElementUnits(), payload); err != nil {
		t.Fatal(err)
	}
	d := &subjob.Delta{
		SubjobID: "j/sj",
		PrevSeq:  1,
		Consumed: map[string]uint64{"in": 50},
		PEDeltas: [][]byte{nil},
		PEFull:   [][]byte{(&pe.CounterLogic{Pad: 1}).Snapshot()},
		Pipes:    [][]element.Element{},
		PipeSet:  []bool{},
	}
	dp, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Put("j/sj", 2, d.ElementUnits(), dp); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleRestoreFromCatalog is the cold-restart path end to end at
// the library level: the catalog's head chain rewinds the primary before
// the policy arms, the restored consumed positions raise the input dedup
// floor, and the upstream resync force-replays everything past the last
// acknowledgment — absorbed exactly once.
func TestLifecycleRestoreFromCatalog(t *testing.T) {
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	upM, err := machine.New("up", clk, net)
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

	// The upstream published 60 elements to the now-dead process: 1..40
	// were acknowledged (covered by the cataloged full), 41..60 are still
	// retained; of those, 41..50 are covered by the cataloged delta and
	// 51..60 died with the process.
	up := queue.NewOutput("in", upM.Send)
	up.Subscribe("pri", subjob.DataStream("j/sj", "in"), true)
	batch := make([]element.Element, 60)
	for i := range batch {
		batch[i] = element.Element{ID: uint64(i + 1), Payload: int64(i + 1)}
	}
	// The rebooted machine joins the network only after this publish, so
	// the network drops the batch on the spot, like a crash: with the
	// machine already up, the batch waits in its mailbox and is delivered
	// after all if pri.Start registers the stream before the mailbox
	// drains.
	up.Publish(batch)
	up.Ack("pri", 40)
	priM, err := machine.New("pri", clk, net)
	if err != nil {
		t.Fatal(err)
	}

	cat := checkpoint.NewCatalog(checkpoint.NewMemBackend(), checkpoint.Retention{})
	putCatalogChain(t, cat)

	pri, err := subjob.New(spec, priM, false)
	if err != nil {
		t.Fatal(err)
	}
	pri.Start()
	t.Cleanup(pri.Stop)

	// Start asks the wiring for the upstream queues after it has restored
	// the primary and before it resyncs them: the one moment the position
	// reads the fold alone, with none of 51..60 reprocessed yet.
	var restoredPos uint64
	lc := NewLifecycle(LifecycleConfig{
		Spec:    spec,
		Clock:   clk,
		Primary: pri,
		Policy:  &fakePolicy{},
		Wiring: Wiring{
			UpstreamOutputs: func() []*queue.Output {
				restoredPos = pri.ConsumedPositions()["in"]
				return []*queue.Output{up}
			},
		},
		Catalog:            cat,
		RestoreFromCatalog: true,
	})
	t.Cleanup(lc.Stop)
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}

	if got := lc.RestoredSeq(); got != 2 {
		t.Fatalf("RestoredSeq = %d, want 2 (the chain head)", got)
	}
	if restoredPos != 50 {
		t.Fatalf("restored consumed position %d, want 50 (full+delta fold)", restoredPos)
	}

	// The resync replays 41..60; the restored dedup floor (50) absorbs
	// 41..50 and only the ten elements lost with the process reprocess.
	deadline := time.Now().Add(2 * time.Second)
	for pri.PEs()[0].Processed() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := pri.PEs()[0].Processed(); got != 10 {
		t.Fatalf("processed %d elements after resync, want exactly 10 (51..60)", got)
	}
	if got := pri.ConsumedPositions()["in"]; got != 60 {
		t.Fatalf("consumed position %d after resync, want 60", got)
	}
}

// TestLifecycleRestoreFromCatalogErrors: a cold restart must fail loudly
// — not silently start empty — when the catalog is missing or has
// nothing restorable for the subjob.
func TestLifecycleRestoreFromCatalogErrors(t *testing.T) {
	lc := newLifecycleRig(t, &fakePolicy{})
	lc.cfg.RestoreFromCatalog = true
	if err := lc.Start(); err == nil {
		t.Fatal("Start succeeded with RestoreFromCatalog and no catalog")
	}

	lc2 := newLifecycleRig(t, &fakePolicy{})
	lc2.cfg.RestoreFromCatalog = true
	lc2.cfg.Catalog = checkpoint.NewCatalog(checkpoint.NewMemBackend(), checkpoint.Retention{})
	if err := lc2.Start(); err == nil {
		t.Fatal("Start succeeded restoring from an empty catalog")
	}
}

// peLoops counts the PE loop goroutines, pe.(*PE).run. They are matched
// by their creator, because one not yet scheduled shows no run frame.
func peLoops() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "created by streamha/internal/pe.(*PE).Start")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestFailedStartLeavesNoPELoop: after a failed Start the caller owns the
// primary, and the rig stops it at cleanup. Once the two failed starts of
// TestLifecycleRestoreFromCatalogErrors are cleaned up, none of their
// primaries' PE loops may be left running.
func TestFailedStartLeavesNoPELoop(t *testing.T) {
	before := peLoops()
	t.Run("restore errors", TestLifecycleRestoreFromCatalogErrors)
	deadline := time.Now().Add(2 * time.Second)
	for peLoops() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d PE loops still running after two failed starts were cleaned up", peLoops()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
