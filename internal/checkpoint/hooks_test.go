package checkpoint

import (
	"testing"
	"time"

	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// TestPredecessorStopLeavesSuccessorWired: a re-arm starts the successor
// manager on the live primary runtime before the predecessor's Stop has
// landed. The runtime's trim hook and store-ack handler are keyed by
// subjob, not by manager, so that late Stop must release only what the
// predecessor still owns: the successor keeps acknowledging upstream and
// (sweeping) keeps being triggered by trims.
func TestPredecessorStopLeavesSuccessorWired(t *testing.T) {
	variants := []struct {
		name    string
		mk      func(Config) *Core
		onTrims bool
	}{
		{"sweeping", sweeping, true},
		{"synchronous", synchronous, false},
		{"individual", individual, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(t, InMemory)
			cfg := Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()}
			a := v.mk(cfg)
			a.Start()
			cfg.SeqBase = 100
			b := v.mk(cfg)
			b.Start()
			defer b.Stop()
			a.Stop()

			r.feed(t, 1, 10)
			b.CheckpointNow()
			r.expectAck(t, 10)

			if !v.onTrims {
				return
			}
			r.rt.Out().Subscribe("down", "x", true)
			r.rt.Out().Ack("down", 3)
			waitUntil(t, "a trim has triggered the successor", func() bool { return b.Stats().Taken >= 2 })
		})
	}
}

// TestSuccessorContinuesSequence: a successor manager on the same runtime
// and store node continues its predecessor's sequence numbers, so a
// confirmation the predecessor's store sends late names none of the
// successor's checkpoints and releases nothing of it — neither upstream
// positions nor a payload.
func TestSuccessorContinuesSequence(t *testing.T) {
	r := newRig(t, InMemory)
	r.store.Close() // the test confirms checkpoints itself
	cfg := Config{Runtime: r.rt, Clock: r.clk, Interval: time.Hour, StoreNode: r.secM.ID()}
	a := NewSweeping(cfg)
	a.Start()
	r.feed(t, 1, 5)
	a.CheckpointNow() // seq 1
	a.CheckpointNow() // seq 2
	a.Stop()

	b := NewSweeping(cfg)
	b.Start()
	defer b.Stop()
	r.feed(t, 6, 10)
	b.CheckpointNow()
	confirm := func(seq uint64) {
		r.secM.Send(r.priM.ID(), transport.Message{
			Kind:    transport.KindControl,
			Stream:  subjob.CkptAckStream("j/sj"),
			Command: "ckpt-stored",
			Seq:     seq,
		})
	}
	confirm(1) // the predecessor's, late
	select {
	case seq := <-r.acks:
		t.Fatalf("upstream acknowledged %d on the predecessor's confirmation", seq)
	case <-time.After(20 * time.Millisecond):
	}
	confirm(3) // the successor's
	r.expectAck(t, 10)
}
