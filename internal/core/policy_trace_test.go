package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// tracePlacer is a stub scheduler that hands out the machines of its pool
// in order and logs every call.
type tracePlacer struct {
	pool []*machine.Machine
	log  []string
}

func (p *tracePlacer) take() *machine.Machine {
	if len(p.pool) == 0 {
		return nil
	}
	m := p.pool[0]
	p.pool = p.pool[1:]
	return m
}

func (p *tracePlacer) PlaceStandby(_ string, on *machine.Machine) *machine.Machine {
	m := p.take()
	p.log = append(p.log, fmt.Sprintf("standby(%s)=%s", on.ID(), m.ID()))
	return m
}

func (p *tracePlacer) PlacePrimary(_ string, avoid *machine.Machine) *machine.Machine {
	m := p.take()
	p.log = append(p.log, fmt.Sprintf("primary(%s)=%s", avoid.ID(), m.ID()))
	return m
}

func (p *tracePlacer) NotePrimary(_ string, m *machine.Machine) {
	p.log = append(p.log, fmt.Sprintf("note(%s)", m.ID()))
}

func (p *tracePlacer) Release(string) {}

// policyTrace drives one policy through scripted lifecycle events on a
// rig whose lifecycle clock never advances: no heartbeat, checkpoint or
// ack ticker fires, so every action happens because the script asked for
// it. The machines keep the wall clock, so their CPUs account the deploy,
// resume and connect costs exactly.
type policyTrace struct {
	t      *testing.T
	net    *transport.Mem
	lc     *Lifecycle
	clk    *clock.Manual
	up     *queue.Output
	ms     map[string]*machine.Machine
	placer *tracePlacer
	acks   chan uint64
	ckpt   uint64

	mu   sync.Mutex
	sent []string // upstream transmissions since the last row

	work map[string]time.Duration
	trs  int
}

var traceMachines = []string{"pri", "sec", "spare", "r1", "r2", "r3"}

func traceSnapshot(consumed uint64) *subjob.Snapshot {
	return &subjob.Snapshot{
		SubjobID: "j/sj",
		Consumed: map[string]uint64{"in": consumed},
		PEStates: [][]byte{(&pe.CounterLogic{Pad: 1}).Snapshot()},
		Output:   queue.OutputSnapshot{StreamID: "out", Floor: consumed, NextSeq: consumed + 1},
	}
}

func newPolicyTrace(t *testing.T, pol StandbyPolicy) *policyTrace {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	pt := &policyTrace{
		t:    t,
		net:  net,
		clk:  clock.NewManual(time.Unix(0, 0)),
		ms:   map[string]*machine.Machine{},
		acks: make(chan uint64, 1),
		work: map[string]time.Duration{},
	}
	for _, id := range append([]string{"feed"}, traceMachines...) {
		m, err := machine.New(id, clock.New(), net)
		if err != nil {
			t.Fatal(err)
		}
		pt.ms[id] = m
	}
	pt.placer = &tracePlacer{pool: []*machine.Machine{pt.ms["r1"], pt.ms["r2"], pt.ms["r3"]}}
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
	pri, err := subjob.New(spec, pt.ms["pri"], false)
	if err != nil {
		t.Fatal(err)
	}
	// A primary five elements in: a copy seeded from it, or restored from a
	// checkpoint, shows where its state came from.
	if err := pri.Restore(traceSnapshot(5)); err != nil {
		t.Fatal(err)
	}
	pri.Start()

	// The upstream output transmits nowhere: it records each send, so a
	// row can report replays and which subscribers receive a fresh element.
	pt.up = queue.NewOutput("in", func(to transport.NodeID, msg transport.Message) {
		s := fmt.Sprintf("%s:%d", to, len(msg.Elements))
		if len(msg.Elements) == 0 {
			s = fmt.Sprintf("%s:w%d", to, msg.Seq)
		}
		pt.mu.Lock()
		pt.sent = append(pt.sent, s)
		pt.mu.Unlock()
	})
	pt.up.Subscribe(pri.Node(), subjob.DataStream(spec.ID, "in"), true)
	down := Target{Node: "down", Stream: subjob.DataStream("j/down", "out"), Active: true, Part: -1}
	pri.Out().SubscribePart(down.Node, down.Stream, down.Active, down.Part)

	pt.ms["feed"].RegisterStream(subjob.CkptAckStream(spec.ID), func(_ transport.NodeID, msg transport.Message) {
		pt.acks <- msg.Seq
	})
	pt.lc = NewLifecycle(LifecycleConfig{
		Spec:             spec,
		Clock:            pt.clk,
		Primary:          pri,
		SecondaryMachine: pt.ms["sec"],
		SpareMachine:     pt.ms["spare"],
		Wiring: Wiring{
			UpstreamOutputs:   func() []*queue.Output { return []*queue.Output{pt.up} },
			DownstreamTargets: func() []Target { return []Target{down} },
		},
		Policy: pol,
		Placer: pt.placer,
	})
	t.Cleanup(pt.lc.Stop)
	return pt
}

// event runs one lifecycle event through the transition table on the
// calling goroutine, as the event loop would.
func (pt *policyTrace) event(kind EventKind) {
	var promote <-chan time.Time
	pt.lc.dispatch(lcEvent{kind: kind, at: pt.clk.Now()}, &promote)
}

// checkpoint ships a full snapshot at consumed position n to whatever
// store listens on the standby machine and waits for its acknowledgment.
func (pt *policyTrace) checkpoint(n uint64) {
	pt.t.Helper()
	b, err := traceSnapshot(n).Encode()
	if err != nil {
		pt.t.Fatal(err)
	}
	pt.ckpt++
	pt.ms["feed"].Send(pt.lc.StandbyMachine().ID(), transport.Message{
		Kind:   transport.KindCheckpoint,
		Stream: subjob.CkptStream("j/sj"),
		Seq:    pt.ckpt,
		State:  b,
	})
	select {
	case <-pt.acks:
	case <-time.After(2 * time.Second):
		pt.t.Fatalf("checkpoint %d not acknowledged", pt.ckpt)
	}
}

func (pt *policyTrace) takeSent() string {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	sort.Strings(pt.sent)
	s := strings.Join(pt.sent, ",")
	pt.sent = nil
	return s
}

func (pt *policyTrace) machineAt(p uintptr) string {
	for id, m := range pt.ms {
		if reflect.ValueOf(m).Pointer() == p {
			return id
		}
	}
	return "?"
}

func traceCopy(rt *subjob.Runtime) string {
	if rt == nil {
		return "-"
	}
	run := "run"
	if rt.Suspended() {
		run = "susp"
	}
	st := rt.Out().Stats()
	return fmt.Sprintf("%s(%s in=%d next=%d down=%d/%d)", rt.Node(), run,
		rt.ConsumedPositions()["in"], rt.Out().NextSeq(), st.ActiveSubscribers, st.Subscribers)
}

// row renders what the last step did and where it left the lifecycle.
func (pt *policyTrace) row(name string) string {
	lc := pt.lc
	var b strings.Builder
	b.WriteString(name + ":")
	trs := lc.Transitions()
	if len(trs) == pt.trs {
		b.WriteString(" -")
	}
	for _, tr := range trs[pt.trs:] {
		if tr.Via == stateNone {
			fmt.Fprintf(&b, " %s %s->%s", tr.Event, tr.From, tr.To)
		} else {
			fmt.Fprintf(&b, " %s %s->%s->%s", tr.Event, tr.From, tr.Via, tr.To)
		}
	}
	pt.trs = len(trs)

	st := lc.Stats()
	fmt.Fprintf(&b, " | sw=%d mig=%d rb=%d pro=%d rearm=%d", st.Switchovers, st.Migrations,
		st.Rollbacks, st.Promotions, st.Rearms)
	for _, r := range lc.Rollbacks() {
		fmt.Fprintf(&b, " [adopted=%v units=%d]", r.Adopted, r.StateUnits)
	}
	pri := lc.PrimaryRuntime()
	fmt.Fprintf(&b, " | pri=%s sec=%s secM=%s", traceCopy(pri), traceCopy(lc.SecondaryRuntime()),
		lc.StandbyMachine().ID())

	// Replays the step sent upstream, then who receives a fresh element.
	replays := pt.takeSent()
	pt.up.Publish([]element.Element{{ID: 1}})
	active := map[string]bool{}
	for _, s := range strings.Split(pt.takeSent(), ",") {
		if node, _, ok := strings.Cut(s, ":"); ok {
			active[node] = true
		}
	}
	b.WriteString(" | up={")
	sep := ""
	for _, id := range traceMachines {
		if _, ok := pt.up.AckedBy(transport.NodeID(id)); ok {
			flag := "-"
			if active[id] {
				flag = "+"
			}
			fmt.Fprintf(&b, "%s%s%s", sep, id, flag)
			sep = " "
		}
	}
	fmt.Fprintf(&b, "} replay={%s}", replays)

	lc.mu.Lock()
	store, standby, ackers := lc.store != nil, lc.standby != nil, len(lc.ackers)
	lc.mu.Unlock()
	fmt.Fprintf(&b, " | store=%v standby=%v ackers=%d", store, standby, ackers)

	// Detector and checkpoint-manager wiring, read from their configs.
	if det := lc.Detector(); det != nil {
		cfg := reflect.ValueOf(det).Elem().FieldByName("cfg")
		fmt.Fprintf(&b, " | det %s->%s %q miss=%d", pt.machineAt(cfg.FieldByName("Monitor").Pointer()),
			det.Stats().Target, cfg.FieldByName("Session").String(), cfg.FieldByName("MissThreshold").Int())
	}
	if cm := lc.Checkpoint(); cm != nil {
		cfg := reflect.ValueOf(cm).Elem().FieldByName("cfg")
		fmt.Fprintf(&b, " | cm->%s partial=%v onpri=%v", cfg.FieldByName("StoreNode").String(),
			cfg.FieldByName("Partial").Bool(), cfg.FieldByName("Runtime").Pointer() == reflect.ValueOf(pri).Pointer())
	}

	b.WriteString(" | cpu")
	for _, id := range traceMachines {
		w := pt.ms[id].CPU().WorkDone()
		if d := w - pt.work[id]; d != 0 {
			fmt.Fprintf(&b, " %s+%s", id, d)
		}
		pt.work[id] = w
	}
	if len(pt.placer.log) > 0 {
		fmt.Fprintf(&b, " | placer %s", strings.Join(pt.placer.log, " "))
		pt.placer.log = nil
	}
	if dr, ok := lc.Policy().(*ApproxPolicy); ok {
		d := dr.Divergence()
		fmt.Fprintf(&b, " | div f=%d skip=%d exact=%d lost=%d within=%v",
			d.Failovers, d.BudgetedSkips, d.ExactReplays, d.LostElements, d.WithinBudget)
	}
	return b.String()
}

type traceStep struct {
	name string
	do   func(pt *policyTrace)
}

func traceEvent(kind EventKind) func(*policyTrace) {
	return func(pt *policyTrace) { pt.event(kind) }
}

func traceCkpt(n uint64) func(*policyTrace) {
	return func(pt *policyTrace) { pt.checkpoint(n) }
}

func traceCrashThen(id string, kind EventKind) func(*policyTrace) {
	return func(pt *policyTrace) {
		pt.ms[id].Crash()
		pt.event(kind)
	}
}

// hybridScript switches over, rolls back, switches over again, promotes
// onto the spare, and re-arms after the spare dies.
var hybridScript = []traceStep{
	{"arm", func(pt *policyTrace) {
		if err := pt.lc.Start(); err != nil {
			pt.t.Fatal(err)
		}
	}},
	{"ckpt 7", traceCkpt(7)},
	{"miss", traceEvent(EventMiss)},
	{"recovery", traceEvent(EventRecovery)},
	{"ckpt 9", traceCkpt(9)},
	{"miss", traceEvent(EventMiss)},
	{"promote", traceEvent(EventPromoteTimer)},
	{"ckpt 11", traceCkpt(11)},
	{"rearm", traceEvent(EventRearm)},
	{"crash spare, rearm", traceCrashThen("spare", EventRearm)},
}

// passiveScript migrates away from a live primary, ignores what passive
// standby has no use for, re-arms after the standby machine dies, then
// migrates away from a crashed primary and onto a placer-supplied machine
// when the standby machine is dead too.
var passiveScript = []traceStep{
	hybridScript[0],
	{"ckpt 7", traceCkpt(7)},
	{"miss", traceEvent(EventMiss)},
	{"recovery", traceEvent(EventRecovery)},
	{"promote", traceEvent(EventPromoteTimer)},
	{"ckpt 9", traceCkpt(9)},
	{"rearm", traceEvent(EventRearm)},
	{"crash pri, rearm", traceCrashThen("pri", EventRearm)},
	{"ckpt 11", traceCkpt(11)},
	{"crash sec, miss", traceCrashThen("sec", EventMiss)},
	{"crash r2, miss", traceCrashThen("r2", EventMiss)},
}

// TestPolicyTraceCharacterisation pins what each standby policy does when
// the lifecycle hands it arm, failover, restore, promote and re-arm: the
// transitions and counters, where the copies run and what state they hold,
// every upstream subscription and replay, which standby-side apparatus
// exists, the detector's and checkpoint manager's wiring, the CPU each
// machine spent, and every scheduler call. The rows were recorded on the
// policies before passive standby became a preset of the hybrid policy.
func TestPolicyTraceCharacterisation(t *testing.T) {
	opts := Options{FailStopAfter: 250 * time.Millisecond}
	cases := []struct {
		name     string
		pol      func() StandbyPolicy
		script   []traceStep
		recorded []string
		changed  map[string]string
	}{
		{
			name:   "passive",
			pol:    func() StandbyPolicy { return NewPassivePolicy(PassiveOptions{}) },
			script: passiveScript,
			recorded: []string{
				"arm: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=- secM=sec | up={pri+} replay={} | store=true standby=false ackers=0 | det sec->pri \"j/sj/sec\" miss=3 | cm->sec partial=false onpri=true | cpu",
				"ckpt 7: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=- secM=sec | up={pri+} replay={} | store=true standby=false ackers=0 | det sec->pri \"j/sj/sec\" miss=3 | cm->sec partial=false onpri=true | cpu",
				"miss: miss protected->migrating->protected | sw=0 mig=1 rb=0 pro=0 rearm=0 | pri=sec(run in=7 next=8 down=1/1) sec=- secM=pri | up={sec+} replay={sec:2} | store=true standby=false ackers=0 | det pri->sec \"j/sj/pri\" miss=3 | cm->pri partial=false onpri=true | cpu sec+24ms | placer note(sec)",
				"recovery: - | sw=0 mig=1 rb=0 pro=0 rearm=0 | pri=sec(run in=7 next=8 down=1/1) sec=- secM=pri | up={sec+} replay={} | store=true standby=false ackers=0 | det pri->sec \"j/sj/pri\" miss=3 | cm->pri partial=false onpri=true | cpu",
				"promote: - | sw=0 mig=1 rb=0 pro=0 rearm=0 | pri=sec(run in=7 next=8 down=1/1) sec=- secM=pri | up={sec+} replay={} | store=true standby=false ackers=0 | det pri->sec \"j/sj/pri\" miss=3 | cm->pri partial=false onpri=true | cpu",
				"ckpt 9: - | sw=0 mig=1 rb=0 pro=0 rearm=0 | pri=sec(run in=7 next=8 down=1/1) sec=- secM=pri | up={sec+} replay={} | store=true standby=false ackers=0 | det pri->sec \"j/sj/pri\" miss=3 | cm->pri partial=false onpri=true | cpu",
				"rearm: - | sw=0 mig=1 rb=0 pro=0 rearm=0 | pri=sec(run in=7 next=8 down=1/1) sec=- secM=pri | up={sec+} replay={} | store=true standby=false ackers=0 | det pri->sec \"j/sj/pri\" miss=3 | cm->pri partial=false onpri=true | cpu",
				"crash pri, rearm: - | sw=0 mig=1 rb=0 pro=0 rearm=1 | pri=sec(run in=7 next=8 down=1/1) sec=- secM=r1 | up={sec+} replay={} | store=true standby=false ackers=0 | det r1->sec \"j/sj/r1\" miss=3 | cm->r1 partial=false onpri=true | cpu | placer standby(sec)=r1",
				"ckpt 11: - | sw=0 mig=1 rb=0 pro=0 rearm=1 | pri=sec(run in=7 next=8 down=1/1) sec=- secM=r1 | up={sec+} replay={} | store=true standby=false ackers=0 | det r1->sec \"j/sj/r1\" miss=3 | cm->r1 partial=false onpri=true | cpu",
				"crash sec, miss: miss protected->migrating->protected | sw=0 mig=2 rb=0 pro=0 rearm=2 | pri=r1(run in=11 next=12 down=1/1) sec=- secM=r2 | up={r1+} replay={r1:9} | store=true standby=false ackers=0 | det r2->r1 \"j/sj/r2\" miss=3 | cm->r2 partial=false onpri=true | cpu r1+24ms | placer note(r1) standby(r1)=r2",
				"crash r2, miss: miss protected->migrating->protected | sw=0 mig=3 rb=0 pro=0 rearm=2 | pri=r3(run in=0 next=1 down=1/1) sec=- secM=r1 | up={r3+} replay={r3:10} | store=true standby=false ackers=0 | det r1->r3 \"j/sj/r1\" miss=3 | cm->r1 partial=false onpri=true | cpu r3+24ms | placer primary(r1)=r3 note(r3)",
			},
		},
		{
			name:   "hybrid",
			pol:    func() StandbyPolicy { return NewHybridPolicy(opts) },
			script: hybridScript,
			recorded: []string{
				"arm: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(susp in=5 next=6 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+20ms",
				"ckpt 7: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(susp in=7 next=8 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu",
				"miss: miss protected->switched_over | sw=1 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(run in=7 next=8 down=1/1) secM=sec | up={pri+ sec+} replay={sec:2} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+5ms",
				"recovery: recovery switched_over->rolling_back->protected | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(susp in=7 next=8 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu",
				"ckpt 9: - | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(susp in=9 next=10 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu",
				"miss: miss protected->switched_over | sw=2 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(run in=9 next=10 down=1/1) secM=sec | up={pri+ sec+} replay={sec:2} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+5ms",
				"promote: promote_timer switched_over->promoted->protected | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=9 next=10 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu spare+20ms | placer note(sec)",
				"ckpt 11: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu",
				"rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu",
				"crash spare, rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=1 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=r1(susp in=9 next=10 down=1/1) secM=r1 | up={sec+ r1-} replay={} | store=false standby=true ackers=1 | det r1->sec \"j/sj\" miss=1 | cm->r1 partial=false onpri=true | cpu r1+20ms | placer standby(sec)=r1",
			},
		},
		{
			name: "hybrid-nopredeploy",
			pol: func() StandbyPolicy {
				o := opts
				o.NoPreDeploy = true
				return NewHybridPolicy(o)
			},
			script: append(append([]traceStep(nil), hybridScript...),
				traceStep{"crash r1, miss", traceCrashThen("r1", EventMiss)}),
			recorded: []string{
				"arm: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=- secM=sec | up={pri+} replay={} | store=true standby=false ackers=0 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu",
				"ckpt 7: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=- secM=sec | up={pri+} replay={} | store=true standby=false ackers=0 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu",
				"miss: miss protected->switched_over | sw=1 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(run in=7 next=8 down=1/1) secM=sec | up={pri+ sec+} replay={sec:2} | store=true standby=false ackers=0 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+29ms",
				"recovery: recovery switched_over->rolling_back->protected | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=- secM=sec | up={pri+ sec-} replay={} | store=true standby=false ackers=0 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu",
				"ckpt 9: - | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=- secM=sec | up={pri+ sec-} replay={} | store=true standby=false ackers=0 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu",
				"miss: miss protected->switched_over | sw=2 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(run in=9 next=10 down=1/1) secM=sec | up={pri+ sec+} replay={sec:5} | store=true standby=false ackers=0 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+29ms",
				"promote: promote_timer switched_over->promoted->protected | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=9 next=10 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=true standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu spare+20ms | placer note(sec)",
				"ckpt 11: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=true standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu",
				"rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=true standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu",
				"crash spare, rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=1 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=- secM=r1 | up={sec+} replay={} | store=true standby=false ackers=0 | det r1->sec \"j/sj\" miss=1 | cm->r1 partial=false onpri=true | cpu | placer standby(sec)=r1",
				"crash r1, miss: miss protected->switched_over | sw=3 mig=0 rb=1 pro=1 rearm=1 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=r1(run in=0 next=1 down=1/1) secM=r1 | up={sec+ r1+} replay={r1:10} | store=true standby=false ackers=0 | det r1->sec \"j/sj\" miss=1 | cm->r1 partial=false onpri=true | cpu",
			},
			changed: map[string]string{
				// A promotion re-arms the way the policy arms, so the spare
				// hosts a checkpoint store for the next on-demand deploy. The
				// recorded policy pre-deployed a suspended copy there despite
				// the ablation, and left the store on the promoted primary's
				// own machine as the one the next failover would deploy from.
				"6 promote": "promote: promote_timer switched_over->promoted->protected | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=- secM=spare | up={sec+} replay={} | store=true standby=false ackers=0 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu | placer note(sec)",
				"7 ckpt 11": "ckpt 11: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=- secM=spare | up={sec+} replay={} | store=true standby=false ackers=0 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu",
				"8 rearm":   "rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=- secM=spare | up={sec+} replay={} | store=true standby=false ackers=0 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu",
				// On-demand deploys share passive standby's path: a dead
				// standby machine makes the placer supply a live host, where
				// the copy starts empty. The recorded policy deployed the copy
				// onto the crashed machine.
				"10 crash r1, miss": "crash r1, miss: miss protected->switched_over | sw=3 mig=0 rb=1 pro=1 rearm=1 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=r2(run in=0 next=1 down=1/1) secM=r1 | up={sec+ r2+} replay={r2:10} | store=true standby=false ackers=0 | det r1->sec \"j/sj\" miss=1 | cm->r1 partial=false onpri=true | cpu r2+29ms | placer primary(sec)=r2",
			},
		},
		{
			name:   "approx-zero",
			pol:    func() StandbyPolicy { return NewApproxPolicy(opts, ErrorBudget{}) },
			script: hybridScript,
			recorded: []string{
				"arm: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(susp in=5 next=6 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+20ms | div f=0 skip=0 exact=0 lost=0 within=true",
				"ckpt 7: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(susp in=7 next=8 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu | div f=0 skip=0 exact=0 lost=0 within=true",
				"miss: miss protected->switched_over | sw=1 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(run in=7 next=8 down=1/1) secM=sec | up={pri+ sec+} replay={sec:2} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+5ms | div f=0 skip=0 exact=0 lost=0 within=true",
				"recovery: recovery switched_over->rolling_back->protected | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(susp in=7 next=8 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu | div f=0 skip=0 exact=0 lost=0 within=true",
				"ckpt 9: - | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(susp in=9 next=10 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu | div f=0 skip=0 exact=0 lost=0 within=true",
				"miss: miss protected->switched_over | sw=2 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(run in=9 next=10 down=1/1) secM=sec | up={pri+ sec+} replay={sec:2} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=false onpri=true | cpu sec+5ms | div f=0 skip=0 exact=0 lost=0 within=true",
				"promote: promote_timer switched_over->promoted->protected | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=9 next=10 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu spare+20ms | placer note(sec) | div f=0 skip=0 exact=0 lost=0 within=true",
				"ckpt 11: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu | div f=0 skip=0 exact=0 lost=0 within=true",
				"rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=false onpri=true | cpu | div f=0 skip=0 exact=0 lost=0 within=true",
				"crash spare, rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=1 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=r1(susp in=9 next=10 down=1/1) secM=r1 | up={sec+ r1-} replay={} | store=false standby=true ackers=1 | det r1->sec \"j/sj\" miss=1 | cm->r1 partial=false onpri=true | cpu r1+20ms | placer standby(sec)=r1 | div f=0 skip=0 exact=0 lost=0 within=true",
			},
		},
		{
			name:   "approx-100",
			pol:    func() StandbyPolicy { return NewApproxPolicy(opts, ErrorBudget{MaxLostElements: 100}) },
			script: hybridScript,
			recorded: []string{
				"arm: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(susp in=5 next=6 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=true onpri=true | cpu sec+20ms | div f=0 skip=0 exact=0 lost=0 within=true",
				"ckpt 7: - | sw=0 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(susp in=7 next=8 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=true onpri=true | cpu | div f=0 skip=0 exact=0 lost=0 within=true",
				"miss: miss protected->switched_over | sw=1 mig=0 rb=0 pro=0 rearm=0 | pri=pri(run in=5 next=6 down=1/1) sec=sec(run in=7 next=8 down=1/1) secM=sec | up={pri- sec+} replay={sec:w2} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=true onpri=true | cpu sec+5ms | div f=1 skip=1 exact=0 lost=2 within=true",
				"recovery: recovery switched_over->rolling_back->protected | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(susp in=7 next=8 down=1/1) secM=sec | up={pri+ sec-} replay={pri:1} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=true onpri=true | cpu | div f=1 skip=1 exact=0 lost=2 within=true",
				"ckpt 9: - | sw=1 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(susp in=9 next=10 down=1/1) secM=sec | up={pri+ sec-} replay={} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=true onpri=true | cpu | div f=1 skip=1 exact=0 lost=2 within=true",
				"miss: miss protected->switched_over | sw=2 mig=0 rb=1 pro=0 rearm=0 [adopted=true units=1] | pri=pri(run in=7 next=8 down=1/1) sec=sec(run in=9 next=10 down=1/1) secM=sec | up={pri- sec+} replay={sec:w5} | store=false standby=true ackers=1 | det sec->pri \"j/sj\" miss=1 | cm->sec partial=true onpri=true | cpu sec+5ms | div f=2 skip=2 exact=0 lost=5 within=true",
				"promote: promote_timer switched_over->promoted->protected | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=9 next=10 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=true onpri=true | cpu spare+20ms | placer note(sec) | div f=2 skip=2 exact=0 lost=5 within=true",
				"ckpt 11: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=true onpri=true | cpu | div f=2 skip=2 exact=0 lost=5 within=true",
				"rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=0 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=spare(susp in=11 next=12 down=1/1) secM=spare | up={sec+ spare-} replay={} | store=false standby=true ackers=1 | det spare->sec \"j/sj\" miss=1 | cm->spare partial=true onpri=true | cpu | div f=2 skip=2 exact=0 lost=5 within=true",
				"crash spare, rearm: - | sw=2 mig=0 rb=1 pro=1 rearm=1 [adopted=true units=1] | pri=sec(run in=9 next=10 down=1/1) sec=r1(susp in=9 next=10 down=1/1) secM=r1 | up={sec+ r1-} replay={} | store=false standby=true ackers=1 | det r1->sec \"j/sj\" miss=1 | cm->r1 partial=true onpri=true | cpu r1+20ms | placer standby(sec)=r1 | div f=2 skip=2 exact=0 lost=5 within=true",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pt := newPolicyTrace(t, c.pol())
			var got []string
			for _, s := range c.script {
				s.do(pt)
				got = append(got, pt.row(s.name))
			}
			want := append([]string(nil), c.recorded...)
			for i, r := range want {
				if now, ok := c.changed[fmt.Sprintf("%d %s", i, r[:strings.IndexByte(r, ':')])]; ok {
					want[i] = now
				}
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				var b strings.Builder
				for _, r := range got {
					fmt.Fprintf(&b, "\t%q,\n", r)
				}
				t.Errorf("trace differs from the recorded one:\n%s", b.String())
			}
		})
	}
}

// TestReadStateTravelsAsAMessage loses the rollback's read-state response
// in transit — the primary's handler is gone — and lets the five-second
// wait run out. The primary adopts nothing: the state it would read exists
// only in the message it never received.
func TestReadStateTravelsAsAMessage(t *testing.T) {
	pt := newPolicyTrace(t, NewHybridPolicy(Options{FailStopAfter: 250 * time.Millisecond}))
	for _, s := range hybridScript[:3] { // arm, ckpt 7, miss
		s.do(pt)
	}
	// Nothing but the rollback's wait may act on the clock from here on.
	pt.lc.Detector().Stop()
	pri := pt.lc.PrimaryRuntime()
	pri.Machine().UnregisterStream(subjob.ReadStateStream("j/sj"))
	before := pri.ConsumedPositions()

	done := make(chan struct{})
	go func() {
		defer close(done)
		pt.event(EventRecovery)
	}()
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			pt.clk.Advance(time.Second)
		}
	}

	rbs := pt.lc.Rollbacks()
	if len(rbs) != 1 || rbs[0].Adopted {
		t.Fatalf("rollbacks %+v, want one that adopted nothing", rbs)
	}
	if got := pri.ConsumedPositions(); !reflect.DeepEqual(got, before) {
		t.Fatalf("primary positions %v after a lost read-state, want %v", got, before)
	}
	if st := pt.lc.State(); st != Protected {
		t.Fatalf("state %v after the rollback, want protected", st)
	}
}
