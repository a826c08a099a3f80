package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"streamha/internal/element"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// kindTap records every checkpoint the rig's managers ship and every
// store acknowledgment, as the network sees them.
type kindTap struct {
	mu     sync.Mutex
	events []string
	acked  map[string]bool
}

func (k *kindTap) observe(from, to transport.NodeID, msg *transport.Message) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch {
	case msg.Kind == transport.KindCheckpoint:
		kind := "full"
		if info, err := subjob.PeekCheckpoint(msg.State); err != nil {
			kind = "bad"
		} else if info.IsPartial {
			kind = "partial"
		} else if info.IsDelta {
			kind = fmt.Sprintf("delta<%d", info.PrevSeq)
		}
		k.events = append(k.events, fmt.Sprintf("%s>%s %s %d", from, to, kind, msg.Seq))
	case msg.Kind == transport.KindControl && msg.Command == "ckpt-stored":
		k.acked[fmt.Sprintf("%s>%s %d", to, from, msg.Seq)] = true
	}
}

// take renders what was shipped since the previous call once the network
// has been quiet for a while: each checkpoint as "from>to kind seq", a
// delta's kind naming the checkpoint it chains onto, and "+" when the store
// acknowledged it, "-" when it did not.
func (k *kindTap) take() string {
	var n int
	quiet := 0
	for deadline := time.Now().Add(2 * time.Second); quiet < 6 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		k.mu.Lock()
		now := len(k.events) + len(k.acked)
		k.mu.Unlock()
		if now == n {
			quiet++
		} else {
			n, quiet = now, 0
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.events) == 0 {
		return "-"
	}
	rows := make([]string, len(k.events))
	for i, e := range k.events {
		f := strings.Fields(e)
		mark := "-"
		if k.acked[f[0]+" "+f[len(f)-1]] {
			mark = "+"
		}
		rows[i] = e + mark
	}
	k.events = nil
	clear(k.acked)
	return strings.Join(rows, ", ")
}

// traceShip publishes one element on the primary's output and acknowledges
// it from the downstream subscriber: the trim fires the sweeping manager.
func traceShip(pt *policyTrace) {
	out := pt.lc.PrimaryRuntime().Out()
	out.Publish([]element.Element{{ID: out.NextSeq()}})
	out.Ack("down", out.NextSeq()-1)
}

var (
	kindShip   = traceStep{"ship", traceShip}
	kindBreak  = traceStep{"chain break", traceEvent(EventChainBreak)}
	kindPrefix = []traceStep{hybridScript[0], kindShip, kindShip, kindShip, kindBreak, kindShip, kindShip}
	// kindPassive migrates, then re-arms after the new standby machine dies.
	kindPassive = append(append([]traceStep(nil), kindPrefix...),
		traceStep{"miss", traceEvent(EventMiss)}, kindShip, kindShip,
		traceStep{"crash pri, rearm", traceCrashThen("pri", EventRearm)}, kindShip, kindShip)
	// kindHybrid switches over, rolls back, switches over again, promotes
	// onto the spare and re-arms after the spare dies.
	kindHybrid = append(append([]traceStep(nil), kindPrefix...),
		traceStep{"miss", traceEvent(EventMiss)}, kindShip,
		traceStep{"recovery", traceEvent(EventRecovery)}, kindShip, kindShip,
		traceStep{"miss", traceEvent(EventMiss)},
		traceStep{"promote", traceEvent(EventPromoteTimer)}, kindShip, kindShip,
		traceStep{"crash spare, rearm", traceCrashThen("spare", EventRearm)}, kindShip, kindShip)
)

// TestCheckpointKindCharacterisation pins, per mode, the kind of every
// checkpoint the lifecycle's managers ship — full, delta (with the
// checkpoint it chains onto) or partial — where it goes and whether the
// store acknowledges it, across arm, ship and acknowledgment, a forced
// chain break, migration, switchover, rollback, promotion and re-arm.
// Passive ships one full and then deltas; it ships a full again after the
// break and from the new manager on the migrated primary and on the
// re-armed one. Hybrid with a rebase count ships deltas its switched-over
// standby does not acknowledge, so the store's chain is broken when the
// first delta after the rollback arrives: the store drops it and the next
// checkpoint is full.
func TestCheckpointKindCharacterisation(t *testing.T) {
	opts := Options{FailStopAfter: 250 * time.Millisecond}
	deltas := opts
	deltas.CheckpointRebaseEvery = 8
	cases := []struct {
		name   string
		pol    func() StandbyPolicy
		script []traceStep
		rows   []string
	}{
		{
			name:   "passive",
			pol:    func() StandbyPolicy { return NewPassivePolicy(PassiveOptions{}) },
			script: kindPassive,
			rows: []string{
				"arm: -",
				"ship: pri>sec full 1+",
				"ship: pri>sec delta<1 2+",
				"ship: pri>sec delta<2 3+",
				"chain break: -",
				"ship: pri>sec full 4+",
				"ship: pri>sec delta<4 5+",
				"miss: -",
				"ship: sec>pri full 1+",
				"ship: sec>pri delta<1 2+",
				"crash pri, rearm: -",
				"ship: sec>r1 full 3+",
				"ship: sec>r1 delta<3 4+",
			},
		},
		{
			name:   "hybrid",
			pol:    func() StandbyPolicy { return NewHybridPolicy(opts) },
			script: kindHybrid,
			rows: []string{
				"arm: -",
				"ship: pri>sec full 1+",
				"ship: pri>sec full 2+",
				"ship: pri>sec full 3+",
				"chain break: -",
				"ship: pri>sec full 4+",
				"ship: pri>sec full 5+",
				"miss: -",
				"ship: pri>sec full 6+",
				"recovery: -",
				"ship: pri>sec full 7+",
				"ship: pri>sec full 8+",
				"miss: -",
				"promote: -",
				"ship: sec>spare full 1+",
				"ship: sec>spare full 2+",
				"crash spare, rearm: -",
				"ship: sec>r1 full 3+",
				"ship: sec>r1 full 4+",
			},
		},
		{
			name:   "hybrid-rebase8",
			pol:    func() StandbyPolicy { return NewHybridPolicy(deltas) },
			script: kindHybrid,
			rows: []string{
				"arm: -",
				"ship: pri>sec full 1+",
				"ship: pri>sec delta<1 2+",
				"ship: pri>sec delta<2 3+",
				"chain break: -",
				"ship: pri>sec full 4+",
				"ship: pri>sec delta<4 5+",
				"miss: -",
				"ship: pri>sec delta<5 6-",
				"recovery: -",
				"ship: pri>sec delta<6 7-",
				"ship: pri>sec full 8+",
				"miss: -",
				"promote: -",
				"ship: sec>spare full 1+",
				"ship: sec>spare delta<1 2+",
				"crash spare, rearm: -",
				"ship: sec>r1 full 3+",
				"ship: sec>r1 delta<3 4+",
			},
		},
		{
			name:   "approx-100",
			pol:    func() StandbyPolicy { return NewApproxPolicy(opts, ErrorBudget{MaxLostElements: 100}) },
			script: kindHybrid,
			rows: []string{
				"arm: -",
				"ship: pri>sec full 1+",
				"ship: pri>sec partial 2+",
				"ship: pri>sec partial 3+",
				"chain break: -",
				"ship: pri>sec full 4+",
				"ship: pri>sec partial 5+",
				"miss: -",
				"ship: pri>sec partial 6+",
				"recovery: -",
				"ship: pri>sec partial 7+",
				"ship: pri>sec partial 8+",
				"miss: -",
				"promote: -",
				"ship: sec>spare full 1+",
				"ship: sec>spare partial 2+",
				"crash spare, rearm: -",
				"ship: sec>r1 full 3+",
				"ship: sec>r1 partial 4+",
			},
		},
		{
			name:   "active",
			pol:    func() StandbyPolicy { return NewActivePolicy(0) },
			script: kindPrefix,
			rows: []string{
				"arm: -",
				"ship: -",
				"ship: -",
				"ship: -",
				"chain break: -",
				"ship: -",
				"ship: -",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pt := newPolicyTrace(t, c.pol())
			tap := &kindTap{acked: map[string]bool{}}
			pt.net.SetObserver(tap.observe)
			var got []string
			for _, s := range c.script {
				s.do(pt)
				got = append(got, s.name+": "+tap.take())
			}
			if strings.Join(got, "\n") != strings.Join(c.rows, "\n") {
				var b strings.Builder
				for _, r := range got {
					fmt.Fprintf(&b, "\t%q,\n", r)
				}
				t.Errorf("kinds differ from the recorded ones:\n%s", b.String())
			}
		})
	}
}
