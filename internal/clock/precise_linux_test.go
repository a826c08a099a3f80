//go:build linux

package clock

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"streamha/internal/clock/clocktest"
)

// serviceRunning reports whether the service goroutine exists.
func serviceRunning() bool {
	service.mu.Lock()
	defer service.mu.Unlock()
	return service.running
}

// waitForIdleExit waits until the service goroutine has ended itself.
func waitForIdleExit(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for serviceRunning() {
		if time.Now().After(deadline) {
			t.Fatalf("service still running %v after the last short wait", 2*time.Second)
		}
		time.Sleep(time.Duration(idleExit) / 2)
	}
}

func median(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// TestIdleSleepPrecision is the reason the service exists: in an idle
// process a runtime timer turns Sleep(200µs) into 1.1 ms.
func TestIdleSleepPrecision(t *testing.T) {
	const d = 200 * time.Microsecond
	c := New()
	took := make([]time.Duration, 100)
	for i := range took {
		start := time.Now()
		c.Sleep(d)
		took[i] = time.Since(start)
	}
	m := median(took)
	t.Logf("Sleep(%v): min %v, median %v, max %v", d, took[0], m, took[len(took)-1])
	if m > 600*time.Microsecond {
		t.Errorf("median Sleep(%v) took %v, want <= 600µs", d, m)
	}
}

// TestEarlierWaitInterruptsPendingOne adds a 100 µs wait while the timer is
// armed for a 1.5 ms one: the enqueuer must re-arm it.
func TestEarlierWaitInterruptsPendingOne(t *testing.T) {
	c := New()
	took := make([]time.Duration, 21)
	for i := range took {
		long := c.After(1500 * time.Microsecond)
		start := time.Now()
		short := c.After(100 * time.Microsecond)
		select {
		case <-short:
			took[i] = time.Since(start)
		case <-long:
			t.Fatal("the 1.5 ms wait fired before a 100 µs wait added after it")
		}
		<-long
	}
	m := median(took)
	t.Logf("100µs wait behind a pending 1.5ms one: median %v, max %v", m, took[len(took)-1])
	if m > 400*time.Microsecond {
		t.Errorf("median 100µs wait took %v behind a pending 1.5ms one, want <= 400µs", m)
	}
}

// TestSleepAllocatesNothing: machine.CPU.Execute sleeps thousands of times
// a second, and time.Sleep, which this replaces, allocates nothing.
// AllocsPerRun reports whole allocations per run, so the odd channel made
// after a collection emptied the pool (or, under the race detector, after
// sync.Pool dropped one on purpose) does not count.
func TestSleepAllocatesNothing(t *testing.T) {
	c := New()
	if got := testing.AllocsPerRun(200, func() { c.Sleep(30 * time.Microsecond) }); got != 0 {
		t.Errorf("Sleep made %v allocations per call, want 0", got)
	}
}

// TestServiceEndsWhenIdle starts the service and lets it idle out fifty
// times: each time its goroutine must be gone, and no thread may be left
// behind per cycle.
func TestServiceEndsWhenIdle(t *testing.T) {
	c := New()
	cycle := func() {
		c.Sleep(100 * time.Microsecond)
		if !serviceRunning() {
			t.Fatal("no service goroutine just after a short wait")
		}
		waitForIdleExit(t)
	}
	waitForIdleExit(t) // an earlier test's waits may still be keeping it up
	for i := 0; i < 5; i++ {
		cycle() // let the runtime grow its thread pool before counting
	}
	goroutines, threads := runtime.NumGoroutine(), clocktest.ProcessThreads(t)
	for i := 0; i < 50; i++ {
		cycle()
	}
	// The goroutine clears running before it returns, so it may be a
	// moment behind waitForIdleExit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Errorf("goroutines: %d before 50 start/idle cycles, %d after", goroutines, g)
	}
	// A leak is one thread per cycle; the runtime's own pool may grow by a
	// thread or two.
	const poolSlack = 3
	if th := clocktest.ProcessThreads(t); th > threads+poolSlack {
		t.Errorf("threads: %d before 50 start/idle cycles, %d after", threads, th)
	}
}

// TestLongWaitsStayOffTheService checks the threshold from the inside: a
// wait of preciseBelow or more does not start the service.
func TestLongWaitsStayOffTheService(t *testing.T) {
	c := New()
	waitForIdleExit(t)
	c.Sleep(preciseBelow)
	<-c.After(preciseBelow)
	<-c.After(0)
	c.Sleep(-time.Millisecond)
	if serviceRunning() {
		t.Fatalf("a wait of %v or a non-positive one started the service", preciseBelow)
	}
	c.Sleep(preciseBelow - time.Nanosecond)
	if !serviceRunning() {
		t.Fatalf("a wait just under %v did not use the service", preciseBelow)
	}
}

func TestDeadlineHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h []deadline
	for i := 0; i < 500; i++ {
		push(&h, deadline{at: rng.Int63n(100)})
		if i%3 == 2 {
			pop(&h)
		}
	}
	last := int64(-1)
	for len(h) > 0 {
		d := pop(&h)
		if d.at < last {
			t.Fatalf("popped %d after %d", d.at, last)
		}
		last = d.at
	}
}
