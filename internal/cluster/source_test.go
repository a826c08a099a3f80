package cluster

import (
	"testing"
	"time"

	"streamha/internal/clock"
)

// TestSourceStallLosesNothing stalls a source for ten ticks at once on a
// manual clock: the late tick pays four ticks' worth of its debt, and the
// ticks that follow pay the rest, so once the debt is paid the source has
// emitted exactly rate × elapsed.
func TestSourceStallLosesNothing(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	clk := clock.NewManual(time.Unix(0, 0))
	const tick = 5 * time.Millisecond // 5 elements at 1000/s
	s := NewSource(SourceConfig{
		Machine: cl.MustAddMachine("src"),
		Clock:   clk,
		Stream:  "s0",
		Rate:    1000,
		Tick:    tick,
	})
	s.Start()
	defer s.Stop()

	var base uint64
	var start time.Time
	// advance moves the clock by d and waits until the source has emitted
	// want elements in all.
	advance := func(d time.Duration, want uint64) {
		t.Helper()
		clk.Advance(d)
		deadline := time.Now().Add(2 * time.Second)
		for s.Emitted() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := s.Emitted(); got != want {
			t.Fatalf("after %v: emitted %d, want %d", clk.Since(start), got-base, want-base)
		}
	}
	// The run loop creates its ticker after Start returns: advance one tick
	// at a time until it has fired, then let it settle. From here on it
	// owes rate × the manual time that passes.
	for deadline := time.Now().Add(2 * time.Second); s.Emitted() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the source never ticked")
		}
		clk.Advance(tick)
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	base, start = s.Emitted(), clk.Now()

	advance(10*tick, base+20) // owes 50, pays four ticks' worth
	advance(tick, base+40)    // owes 35, pays 20
	advance(tick, base+60)    // owes 20
	advance(tick, base+65)    // debt paid: one tick's worth
	if got, want := s.Emitted()-base, uint64(clk.Since(start)/tick*5); got != want {
		t.Fatalf("emitted %d in %v at 1000/s, want %d", got, clk.Since(start), want)
	}
}
