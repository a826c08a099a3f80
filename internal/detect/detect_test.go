package detect

import (
	"sync"
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
	"streamha/internal/transport"
)

type detRig struct {
	net  *transport.Mem
	tgt  *machine.Machine
	mon  *machine.Machine
	resp *Responder
}

func newDetRig(t *testing.T) *detRig {
	t.Helper()
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	tgt, err := machine.New("target", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := machine.New("monitor", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponder(tgt, 200*time.Microsecond)
	t.Cleanup(resp.Close)
	return &detRig{net: net, tgt: tgt, mon: mon, resp: resp}
}

func newHB(r *detRig, interval time.Duration, miss int, onFail, onRec func(time.Time)) *Heartbeat {
	return NewHeartbeat(HeartbeatConfig{
		Monitor:       r.mon,
		Clock:         clock.New(),
		Target:        r.tgt.ID(),
		Session:       "t",
		Interval:      interval,
		MissThreshold: miss,
		OnFailure:     onFail,
		OnRecovery:    onRec,
	})
}

func TestHeartbeatStaysQuietOnHealthyTarget(t *testing.T) {
	r := newDetRig(t)
	hb := newHB(r, 20*time.Millisecond, 1, nil, nil)
	hb.Start()
	defer hb.Stop()
	time.Sleep(300 * time.Millisecond)
	if hb.Failed() {
		t.Fatal("declared failure on a healthy target")
	}
	for _, e := range hb.Events() {
		if e.Type == EventFailure {
			t.Fatalf("false alarm at %v", e.At)
		}
	}
}

func TestHeartbeatDetectsStallAndRecovery(t *testing.T) {
	r := newDetRig(t)
	var mu sync.Mutex
	var failedAt, recoveredAt time.Time
	hb := newHB(r, 20*time.Millisecond, 1,
		func(at time.Time) { mu.Lock(); failedAt = at; mu.Unlock() },
		func(at time.Time) { mu.Lock(); recoveredAt = at; mu.Unlock() })
	hb.Start()
	defer hb.Stop()
	time.Sleep(150 * time.Millisecond) // past startup grace

	r.tgt.CPU().SetBackgroundLoad(1)
	deadline := time.Now().Add(2 * time.Second)
	for !hb.Failed() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !hb.Failed() {
		t.Fatal("stall not detected")
	}
	r.tgt.CPU().SetBackgroundLoad(0)
	deadline = time.Now().Add(2 * time.Second)
	for hb.Failed() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hb.Failed() {
		t.Fatal("recovery not detected")
	}
	mu.Lock()
	defer mu.Unlock()
	if failedAt.IsZero() || recoveredAt.IsZero() || !recoveredAt.After(failedAt) {
		t.Fatalf("callbacks: failed=%v recovered=%v", failedAt, recoveredAt)
	}
}

func TestHeartbeatDetectsCrash(t *testing.T) {
	r := newDetRig(t)
	hb := newHB(r, 20*time.Millisecond, 3, nil, nil)
	hb.Start()
	defer hb.Stop()
	time.Sleep(150 * time.Millisecond)
	r.tgt.Crash()
	deadline := time.Now().Add(2 * time.Second)
	for !hb.Failed() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !hb.Failed() {
		t.Fatal("crash not detected")
	}
}

func TestHeartbeatThreeMissSlowerThanOneMiss(t *testing.T) {
	measure := func(miss int) time.Duration {
		r := newDetRig(t)
		hb := newHB(r, 20*time.Millisecond, miss, nil, nil)
		hb.Start()
		defer hb.Stop()
		time.Sleep(150 * time.Millisecond)
		start := time.Now()
		r.tgt.CPU().SetBackgroundLoad(1)
		deadline := time.Now().Add(3 * time.Second)
		for !hb.Failed() && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if !hb.Failed() {
			t.Fatalf("no detection at miss threshold %d", miss)
		}
		return time.Since(start)
	}
	one := measure(1)
	three := measure(3)
	if three < one+20*time.Millisecond {
		t.Fatalf("3-miss detection (%v) not slower than 1-miss (%v)", three, one)
	}
}

func TestBenchmarkDetectorFiresUnderLoad(t *testing.T) {
	r := newDetRig(t)
	lm := machine.NewLoadMonitor(r.tgt.CPU(), clock.New(), 5*time.Millisecond)
	defer lm.Stop()
	bm := NewBenchmark(BenchmarkConfig{
		Machine:       r.tgt,
		Clock:         clock.New(),
		Monitor:       lm,
		Granularity:   5 * time.Millisecond,
		LoadThreshold: 0.5,
		ProbeWork:     time.Millisecond,
		Factor:        2,
		Cooldown:      50 * time.Millisecond,
	})
	bm.Start()
	defer bm.Stop()

	time.Sleep(50 * time.Millisecond)
	if n := len(bm.Events()); n != 0 {
		t.Fatalf("benchmark fired %d times on idle machine", n)
	}
	r.tgt.CPU().SetBackgroundLoad(0.9)
	deadline := time.Now().Add(2 * time.Second)
	for len(bm.Events()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(bm.Events()) == 0 {
		t.Fatal("benchmark never fired at 90% load")
	}
}

func TestBenchmarkCooldownLimitsRate(t *testing.T) {
	r := newDetRig(t)
	lm := machine.NewLoadMonitor(r.tgt.CPU(), clock.New(), 2*time.Millisecond)
	defer lm.Stop()
	bm := NewBenchmark(BenchmarkConfig{
		Machine:       r.tgt,
		Clock:         clock.New(),
		Monitor:       lm,
		Granularity:   2 * time.Millisecond,
		LoadThreshold: 0.5,
		ProbeWork:     500 * time.Microsecond,
		Factor:        1.5,
		Cooldown:      100 * time.Millisecond,
	})
	bm.Start()
	defer bm.Stop()
	r.tgt.CPU().SetBackgroundLoad(0.95)
	time.Sleep(250 * time.Millisecond)
	r.tgt.CPU().SetBackgroundLoad(0)
	if n := len(bm.Events()); n > 4 {
		t.Fatalf("cooldown failed: %d declarations in 250ms", n)
	}
}

func TestScoreMatchesDeclarationsToSpikes(t *testing.T) {
	t0 := time.Unix(0, 0)
	spikes := []Spike{
		{Start: t0, End: t0.Add(100 * time.Millisecond)},
		{Start: t0.Add(500 * time.Millisecond), End: t0.Add(600 * time.Millisecond)},
	}
	events := []Event{
		{Type: EventFailure, At: t0.Add(30 * time.Millisecond)},  // hit spike 1
		{Type: EventFailure, At: t0.Add(300 * time.Millisecond)}, // false alarm
		{Type: EventFailure, At: t0.Add(610 * time.Millisecond)}, // hit spike 2 within grace
		{Type: EventRecovery, At: t0.Add(700 * time.Millisecond)},
	}
	q := Score(spikes, events, 50*time.Millisecond)
	if q.Spikes != 2 || q.Detected != 2 || q.Declarations != 3 || q.FalseAlarms != 1 {
		t.Fatalf("quality %+v", q)
	}
	if q.DetectionRatio() != 1 {
		t.Fatalf("detection ratio %f", q.DetectionRatio())
	}
	if q.FalseAlarmRatio() < 0.32 || q.FalseAlarmRatio() > 0.34 {
		t.Fatalf("false alarm ratio %f", q.FalseAlarmRatio())
	}
	// Mean delay: spike1 hit at +30ms, spike2 hit at +110ms → 70ms.
	if q.MeanDelay != 70*time.Millisecond {
		t.Fatalf("mean delay %v", q.MeanDelay)
	}
}

func TestScoreEmpty(t *testing.T) {
	q := Score(nil, nil, 0)
	if q.DetectionRatio() != 0 || q.FalseAlarmRatio() != 0 {
		t.Fatalf("empty quality %+v", q)
	}
}

func TestCrashedResponderSendsNoPongsAndBurnsNoCPU(t *testing.T) {
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	tgt, err := machine.New("target", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := machine.New("monitor", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponder(tgt, 50*time.Millisecond)
	t.Cleanup(resp.Close)

	pongs := make(chan uint64, 64)
	mon.RegisterStream("hbreply|crashed", func(_ transport.NodeID, msg transport.Message) {
		pongs <- msg.Seq
	})

	tgt.Crash()
	before := tgt.CPU().WorkDone()
	// Inject pings directly into the responder's queue, modeling pings
	// that were already accepted when the crash hit: the crashed machine's
	// transport would drop newly arriving ones before they got here.
	for i := 1; i <= 8; i++ {
		resp.work <- pingReq{from: mon.ID(), seq: uint64(i), replyStream: "hbreply|crashed"}
	}
	time.Sleep(100 * time.Millisecond)

	if got := tgt.CPU().WorkDone() - before; got != 0 {
		t.Fatalf("crashed responder burned %v of simulated CPU", got)
	}
	if n := len(pongs); n != 0 {
		t.Fatalf("crashed responder sent %d pongs", n)
	}
}

func TestResponderDropsWhenSaturated(t *testing.T) {
	r := newDetRig(t)
	// Stall the target so replies queue up; flood with pings.
	r.tgt.CPU().SetBackgroundLoad(1)
	pongs := make(chan uint64, 256)
	r.mon.RegisterStream("hbreply|flood", func(_ transport.NodeID, msg transport.Message) {
		pongs <- msg.Seq
	})
	for i := 1; i <= 100; i++ {
		r.mon.Send(r.tgt.ID(), transport.Message{
			Kind:    transport.KindPing,
			Stream:  "hb|target",
			Command: "hbreply|flood",
			Seq:     uint64(i),
		})
	}
	time.Sleep(50 * time.Millisecond)
	r.tgt.CPU().SetBackgroundLoad(0)
	time.Sleep(100 * time.Millisecond)
	if got := len(pongs); got > 40 {
		t.Fatalf("overloaded responder answered %d of 100 pings; queue should have dropped most", got)
	}
}

// TestHeartbeatTickAllocatesNothing: a warmed ping to a transport.Mem peer
// allocates nothing — both stream names are built once, not per ping. The
// peer runs no responder, so its machine drops the pings unanswered, and
// the interval is long enough that none of them counts as missed.
func TestHeartbeatTickAllocatesNothing(t *testing.T) {
	net := transport.NewMem(transport.MemConfig{})
	t.Cleanup(net.Close)
	clk := clock.New()
	tgt, err := machine.New("target", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := machine.New("monitor", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	hb := NewHeartbeat(HeartbeatConfig{
		Monitor:  mon,
		Clock:    clk,
		Target:   tgt.ID(),
		Session:  "t",
		Interval: time.Hour,
	})
	for i := 0; i < 10; i++ {
		hb.tick()
	}
	if got := testing.AllocsPerRun(100, hb.tick); got != 0 {
		t.Errorf("a warmed tick made %v allocations, want 0", got)
	}
	if st := hb.Stats(); st.Sent != 111 || st.Failed {
		t.Fatalf("stats after the ticks: %+v", st)
	}
}
