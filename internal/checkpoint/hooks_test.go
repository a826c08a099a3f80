package checkpoint

import (
	"testing"
	"time"
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
		mk      func(Config) Manager
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
