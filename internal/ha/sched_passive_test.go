package ha_test

import (
	"testing"
	"time"

	"streamha/internal/ha"
)

// TestScheduledPassiveRearmKeepsAcknowledging: when a passive subjob's
// store host dies, the re-arm starts a new checkpoint manager on the live
// primary runtime while the old one is still being stopped. The old
// manager's teardown must not unhook its successor: after the re-arm the
// subjob keeps releasing stored checkpoints upstream (its pending-ack
// window stays small), keeps sweeping, and its upstream keeps trimming.
func TestScheduledPassiveRearmKeepsAcknowledging(t *testing.T) {
	cl, _, p := buildScheduledTestbedMode(t, ha.ModePassive)
	clk := cl.Clock()
	clk.Sleep(300 * time.Millisecond)

	groups := p.AllGroups()
	up, target := groups[0], groups[1]
	_, sby := hostsOf(target)
	if err := cl.CrashMachine(sby); err != nil {
		t.Fatalf("crash %s: %v", sby, err)
	}
	deadline := clk.Now().Add(2 * time.Second)
	for target.HA.Stats().Rearms < 1 {
		if clk.Now().After(deadline) {
			t.Fatal("the target subjob never re-armed after losing its store host")
		}
		clk.Sleep(5 * time.Millisecond)
	}
	if !waitProtectedGroups(cl, groups, 2*time.Second) {
		t.Fatal("a subjob stayed unprotected while schedulable capacity existed")
	}

	taken := target.HA.Checkpoint().Stats().Taken
	retained := up.HA.PrimaryRuntime().Out().Len()
	for sample := 1; sample <= 2; sample++ {
		clk.Sleep(500 * time.Millisecond)
		st := target.HA.Checkpoint().Stats()
		if st.Pending > 4 {
			t.Fatalf("sample %d: %d of %d checkpoints still await their store ack; the re-armed manager lost its ack handler",
				sample, st.Pending, st.Taken)
		}
		if st.Taken <= taken {
			t.Fatalf("sample %d: checkpoints taken stayed at %d", sample, st.Taken)
		}
		taken = st.Taken
		// 500 elements/s: an upstream that is never acknowledged retains 250
		// more elements per sample.
		now := up.HA.PrimaryRuntime().Out().Len()
		if now > retained+100 {
			t.Fatalf("sample %d: upstream retains %d elements, up from %d; the re-armed subjob stopped acknowledging",
				sample, now, retained)
		}
		retained = now
	}

	p.Source().Stop()
	clk.Sleep(300 * time.Millisecond)
	verifyExactlyOnce(t, p, 300)
}
