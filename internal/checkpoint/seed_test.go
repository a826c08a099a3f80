package checkpoint

import (
	"sync"
	"testing"
	"time"

	"streamha/internal/clock"
)

// seedInterval is the virtual checkpoint interval of the seed-rule tests.
const seedInterval = 10 * time.Millisecond

// seedClock is a Manual clock that keeps the last channel it handed out
// for a timer, so a test can wait until the manager has read each tick
// before it advances to the next one: Manual drops a tick while the
// previous one is still unread. It keeps After's channels as well as the
// ticker's, so the tests also drive a trigger that re-arms a one-shot
// timer after every capture, and show how it differs.
type seedClock struct {
	*clock.Manual
	mu sync.Mutex
	ch <-chan time.Time
}

func (c *seedClock) keep(ch <-chan time.Time) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ch = ch
	return ch
}

func (c *seedClock) After(d time.Duration) <-chan time.Time { return c.keep(c.Manual.After(d)) }

func (c *seedClock) NewTicker(d time.Duration) clock.Ticker {
	tk := c.Manual.NewTicker(d)
	c.keep(tk.C())
	return tk
}

// settled reports whether the manager has a timer set and has read every
// tick delivered on it so far.
func (c *seedClock) settled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ch != nil && len(c.ch) == 0
}

// seedRig is a started sweeping manager whose timer runs on a seedClock
// and whose output queue holds 100 elements, acknowledged by one
// downstream subscriber, so that each trim the test makes trims one.
type seedRig struct {
	*rig
	clk     *seedClock
	start   time.Time
	cm      *Core
	trimmed uint64
}

func newSeedRig(t *testing.T) *seedRig {
	t.Helper()
	r := newRig(t, InMemory)
	r.feed(t, 1, 100)
	waitOutLen(t, r.rt, 100)
	r.rt.Out().Subscribe("down", "x", true)
	// Every checkpoint releases an upstream acknowledgment into r.acks,
	// whose buffer would otherwise fill and block the network.
	drained := make(chan struct{})
	go func() {
		for {
			select {
			case <-r.acks:
			case <-drained:
				return
			}
		}
	}()
	t.Cleanup(func() { close(drained) })

	start := time.Unix(0, 0)
	s := &seedRig{rig: r, clk: &seedClock{Manual: clock.NewManual(start)}, start: start}
	s.cm = NewSweeping(Config{Runtime: r.rt, Clock: s.clk, Interval: seedInterval,
		StoreNode: r.secM.ID(), Costs: Costs{Disabled: true}})
	s.cm.Start()
	t.Cleanup(s.cm.Stop)
	waitUntil(t, "the manager has set its timer", s.clk.settled)
	return s
}

// to advances virtual time to at after the start, stopping at every tick
// of the interval on the way until the manager has read it.
func (s *seedRig) to(t *testing.T, at time.Duration) {
	t.Helper()
	for {
		now := s.clk.Since(s.start)
		next := (now/seedInterval + 1) * seedInterval
		if next > at {
			next = at
		}
		if next <= now {
			return
		}
		s.clk.Advance(next - now)
		waitUntil(t, "the manager has read its tick", s.clk.settled)
	}
}

// trim acknowledges one more element downstream and waits for the
// checkpoint the trim triggers.
func (s *seedRig) trim(t *testing.T) {
	t.Helper()
	want := s.cm.Stats().TrimTriggered + 1
	s.trimmed++
	s.rt.Out().Ack("down", s.trimmed)
	waitUntil(t, "the trim has triggered a checkpoint", func() bool { return s.cm.Stats().TrimTriggered >= want })
}

// timerCheckpoints waits for the manager to have taken n timer-triggered
// checkpoints.
func (s *seedRig) timerCheckpoints(t *testing.T, n int) {
	t.Helper()
	waitUntil(t, "the tick has checkpointed", func() bool { return s.cm.Stats().TimerTriggered >= n })
}

// stats stops the manager, so every tick it has read is accounted for,
// and returns its statistics.
func (s *seedRig) stats() ManagerStats {
	s.cm.Stop()
	return s.cm.Stats()
}

// TestSweepTickSeedsOnlyWithoutTrims: with trims arriving every 1.1 ×
// Interval almost every tick period holds one, so the ticker seeds a sweep
// only in the odd period that holds none — about one timer checkpoint per
// ten trims. A timer that is re-armed after every capture instead fires in
// almost every gap between two trims.
func TestSweepTickSeedsOnlyWithoutTrims(t *testing.T) {
	s := newSeedRig(t)
	const trims = 50
	for j := 1; j <= trims; j++ {
		// Half a millisecond off the tick grid, so no trim ties with a tick.
		s.to(t, time.Duration(j)*seedInterval*11/10+seedInterval/20)
		s.trim(t)
	}
	s.to(t, (trims*11/10+1)*seedInterval)
	st := s.stats()
	if st.TrimTriggered != trims {
		t.Fatalf("%d trim-triggered checkpoints, want %d", st.TrimTriggered, trims)
	}
	if st.TimerTriggered*5 > st.TrimTriggered {
		t.Fatalf("%d timer-triggered checkpoints against %d trim-triggered ones, want at most one per five",
			st.TimerTriggered, st.TrimTriggered)
	}
}

// TestSweepTickWithoutTrimsEveryInterval: a subjob that receives no trims —
// a stalled downstream, the sink-less tail — checkpoints once per Interval.
func TestSweepTickWithoutTrimsEveryInterval(t *testing.T) {
	s := newSeedRig(t)
	const periods = 20
	for k := 1; k <= periods; k++ {
		s.to(t, time.Duration(k)*seedInterval)
		s.timerCheckpoints(t, k)
	}
	if st := s.stats(); st.TimerTriggered != periods || st.Taken != periods {
		t.Fatalf("%d timer-triggered of %d checkpoints over %d intervals, want %d of %d",
			st.TimerTriggered, st.Taken, periods, periods, periods)
	}
}

// TestSweepTickResumesAfterTrimsStop: once trims stop, the standby is not
// left stale — the first timer checkpoint comes within 2 × Interval of the
// last trim, and one follows every Interval after it.
func TestSweepTickResumesAfterTrimsStop(t *testing.T) {
	s := newSeedRig(t)
	var last time.Duration
	for j := 1; j <= 10; j++ {
		last = time.Duration(j)*seedInterval*11/10 + seedInterval/20
		s.to(t, last)
		s.trim(t)
	}
	before := s.cm.Stats().TimerTriggered
	s.to(t, last+2*seedInterval)
	s.timerCheckpoints(t, before+1)
	const more = 5
	for k := 1; k <= more; k++ {
		s.to(t, last+time.Duration(2+k)*seedInterval)
		s.timerCheckpoints(t, before+1+k)
	}
	if st := s.stats(); st.TimerTriggered != before+1+more {
		t.Fatalf("%d timer-triggered checkpoints in the %v after the last trim, want %d",
			st.TimerTriggered-before, (2+more)*seedInterval, 1+more)
	}
}

// TestSweepCheckpointNowSuppressesTick: an explicit checkpoint counts as
// one the ticker need not seed, so the next tick takes none; the tick after
// it, with nothing taken in between, does.
func TestSweepCheckpointNowSuppressesTick(t *testing.T) {
	s := newSeedRig(t)
	s.to(t, seedInterval)
	s.timerCheckpoints(t, 1)
	s.cm.CheckpointNow()
	s.to(t, 2*seedInterval)
	s.to(t, 3*seedInterval)
	s.timerCheckpoints(t, 2)
	if st := s.stats(); st.TimerTriggered != 2 || st.Taken != 3 {
		t.Fatalf("%d timer-triggered of %d checkpoints, want 2 of 3", st.TimerTriggered, st.Taken)
	}
}
