package transport

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"streamha/internal/clock"
	"streamha/internal/clock/clocktest"
)

// TestHopLatencyWallClock measures what a simulated 200 µs link costs on
// the wall clock: sequential Send→handler hops on an otherwise idle
// process, the case in which the Go runtime rounds a timer up to a
// millisecond. The bound on the median applies where the scheduler waits
// in the kernel (Linux); that no hop is shorter than Latency holds
// everywhere.
func TestHopLatencyWallClock(t *testing.T) {
	const lat = 200 * time.Microsecond
	const hops = 200
	net := NewMem(MemConfig{Latency: lat})
	defer net.Close()
	arrived := make(chan time.Time, 1)
	if _, err := net.Register("dst", func(NodeID, Message) { arrived <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	src, err := net.Register("src", func(NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	took := make([]time.Duration, 0, hops)
	for i := 0; i < hops; i++ {
		sent := time.Now()
		if err := src.Send("dst", Message{Kind: KindPing}); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-arrived:
			took = append(took, at.Sub(sent))
		case <-time.After(2 * time.Second):
			t.Fatalf("hop %d not delivered", i)
		}
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if took[0] < lat {
		t.Errorf("shortest hop took %v, under the %v latency", took[0], lat)
	}
	median := took[hops/2]
	t.Logf("%d hops at %v: min %v, median %v, max %v", hops, lat, took[0], median, took[hops-1])
	if runtime.GOOS == "linux" && median > 600*time.Microsecond {
		t.Errorf("median hop took %v, want <= 600µs on a %v link", median, lat)
	}
}

// TestCloseDuringPendingWait closes the network while its scheduler waits
// for a pending deadline. A kernel wait cannot be interrupted, so Close may take one
// Latency; it must not take longer.
func TestCloseDuringPendingWait(t *testing.T) {
	const lat = 100 * time.Millisecond
	net := NewMem(MemConfig{Latency: lat})
	if _, err := net.Register("dst", func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
	src, err := net.Register("src", func(NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Send("dst", Message{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the scheduler start its wait
	start := time.Now()
	net.Close()
	if took := time.Since(start); took > lat+50*time.Millisecond {
		t.Fatalf("Close took %v with a %v wait pending", took, lat)
	}
}

// TestNewMemCloseLeaksNothing cycles networks whose scheduler has waited
// at least once. Close returns after the scheduler goroutine has exited,
// and on Linux that goroutine takes its locked thread with it.
func TestNewMemCloseLeaksNothing(t *testing.T) {
	cycle := func() {
		net := NewMem(MemConfig{Latency: 200 * time.Microsecond})
		got := make(chan struct{}, 1)
		if _, err := net.Register("dst", func(NodeID, Message) { got <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
		src, err := net.Register("src", func(NodeID, Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Send("dst", Message{Kind: KindPing}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered")
		}
		net.Close()
	}
	// The runtime starts threads of its own while the first networks run
	// (a thread to take over the P of one that entered a system call) and
	// keeps them; warm its pool up before counting.
	for i := 0; i < 10; i++ {
		cycle()
	}
	goroutines, threads := runtime.NumGoroutine(), clocktest.ProcessThreads(t)
	for i := 0; i < 100; i++ {
		cycle()
	}
	// A leak is one thread per cycle; the runtime's own pool may still
	// grow by a thread or two under a scheduling pattern it had not met.
	const poolSlack = 3
	// An exiting thread leaves /proc a moment after its goroutine is gone.
	deadline := time.Now().Add(2 * time.Second)
	g, th := runtime.NumGoroutine(), clocktest.ProcessThreads(t)
	for (g > goroutines || th > threads+poolSlack) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		g, th = runtime.NumGoroutine(), clocktest.ProcessThreads(t)
	}
	if g > goroutines {
		t.Errorf("goroutines: %d before 100 NewMem/Close cycles, %d after", goroutines, g)
	}
	if th > threads+poolSlack {
		t.Errorf("threads: %d before 100 NewMem/Close cycles, %d after", threads, th)
	}
}

// armedClock is a manual clock that reports every After, so a test can
// wait until the scheduler has armed its timer before advancing past it.
// Not being clock.Real, it also keeps the scheduler on the runtime-timer
// path on every platform.
type armedClock struct {
	*clock.Manual
	armed chan time.Duration
}

func (c armedClock) After(d time.Duration) <-chan time.Time {
	ch := c.Manual.After(d)
	c.armed <- d
	return ch
}

// TestManualClockDeliversAtDeadline drives the Clock.After path, the only
// one a non-wall clock can use: nothing is delivered until Advance
// reaches the deadline, and the message is delivered at exactly that
// reading.
func TestManualClockDeliversAtDeadline(t *testing.T) {
	// The delay line keeps deadlines to the nanosecond, so any latency and
	// start would do for "exactly"; these are kept from when a scheduler
	// tick had to divide them.
	const lat = time.Duration(1 << 20)
	start := time.Unix(0, 1<<40)
	clk := armedClock{Manual: clock.NewManual(start), armed: make(chan time.Duration, 1)}
	net := NewMem(MemConfig{Clock: clk, Latency: lat})
	defer net.Close()
	at := make(chan time.Time, 1)
	if _, err := net.Register("dst", func(NodeID, Message) { at <- clk.Now() }); err != nil {
		t.Fatal(err)
	}
	src, err := net.Register("src", func(NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Send("dst", Message{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-clk.armed:
		if d != lat {
			t.Fatalf("scheduler waits %v for a message sent now, want %v", d, lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("scheduler armed no timer: not on the Clock.After path")
	}
	clk.Advance(lat - time.Nanosecond)
	select {
	case got := <-at:
		t.Fatalf("delivered at %v, before the deadline %v", got, start.Add(lat))
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	select {
	case got := <-at:
		if !got.Equal(start.Add(lat)) {
			t.Fatalf("delivered at %v, want %v", got, start.Add(lat))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("not delivered once the clock reached the deadline")
	}
}
