//go:build linux

package clock

import (
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Why this file exists. When every P is idle the Go runtime waits for its
// next timer in epoll_wait, whose timeout is whole milliseconds
// (runtime/netpoll_epoll.go rounds a delay under 1e6 ns up to 1 ms), so in
// an otherwise idle process time.Sleep of 100, 256 or 500 µs all take about
// 1.1 ms. The kernel's high-resolution timers have no such rounding. This
// file is the one place that reaches them: the shared service behind Real's
// short Sleep and After, and KernelWaiter for a caller that owns a thread.
// precise_other.go is what every other port gets.

const (
	// preciseBelow is the wait below which Real uses the service. A wait
	// of 2 ms or more rounds up by at most a millisecond on a runtime
	// timer, under half of what it asked for, and the waits the model makes
	// that long (machine.CPU's 3 ms slices of a 5 ms ResumeCost or a 20 ms
	// DeployCost) set Figs 7-9's resume, redeploy and switchover, which
	// moved by one sub-2 ms remainder slice each (0.4 ms) and no more;
	// below it the rounding is the larger part of the wait (idle Sleep of
	// 100 / 256 / 500 µs: 1.11 / 1.10 / 1.10 ms on a runtime timer).
	preciseBelow = 2 * time.Millisecond

	// idleExit is how long the service goroutine outlives the last short
	// wait. It must exceed every steady-state gap between short waits, or
	// the goroutine is restarted for each: the widest on the benchmark is
	// stall-hybrid's 5 ms source tick (tcp-active makes about 5 000 short
	// waits a second). It must also be short enough that a stopped
	// deployment reads as leaking nothing: the benchmark counts goroutines
	// 20 ms after Stop.
	idleExit = int64(10 * time.Millisecond)
)

// deadline is one pending short wait.
type deadline struct {
	// at is when the wait ends, now + d in ns since epoch, not rounded to a
	// grid: with the reader parked in the poller, merging close expiries
	// saves no wake-up, and a 50 µs grid made waits 25 µs late on average.
	at int64
	ch chan time.Time
}

// service is the process-wide queue of short waits: a min-heap of deadlines
// and a timerfd armed for the earliest, read by one goroutine that exists
// only while there are waits to serve.
//
// The timerfd is armed by whoever holds mu. An enqueuer whose deadline is
// earlier than the armed one re-arms it with one system call, so the
// reading goroutine is woken only when a deadline is reached, never to be
// told about a new one. The fd is non-blocking and wrapped in an os.File,
// so that goroutine waits parked in the runtime's network poller, not in a
// thread of its own: the thread that an idle runtime keeps in epoll_wait
// returns the moment the timer expires (an fd event is not subject to the
// millisecond rounding, a timeout is) and runs the reader and then the
// sleepers it readies. A reader blocked in read(2) on a thread of its own
// delivers as precisely but costs a second thread wake-up per expiry and,
// where sockets share the poller, a hand-off between the two: tcp-active
// sink arrival 2.0 ms against 1.5, stall-hybrid proc.cpu_us_per_elem 250
// against 215 (CHANGES.md, PR 22). The timer's expiry is an hrtimer of its
// own, not a sleeping thread's, so no thread's timer slack applies.
var service struct {
	mu      sync.Mutex
	heap    []deadline
	opened  bool     // the timerfd has been asked for
	fd      int      // the timerfd, for arm; kept for the life of the process
	file    *os.File // the same, for the reader; nil if there is none to be had
	armed   int64    // what the timerfd is set to, while running
	running bool     // a goroutine is in serve
}

var (
	epoch = time.Now()

	// sleepChans recycles Sleep's channels: a channel is reusable once its
	// one value has been received.
	sleepChans = sync.Pool{New: func() any { return make(chan time.Time, 1) }}
)

// sinceEpoch is a monotonic reading: epoch carries one.
func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// short reports whether a wait of d is the service's to serve.
func short(d time.Duration) bool { return d > 0 && d < preciseBelow }

// preciseSleep sleeps for d on the service and reports true, or reports
// false when d is not a short wait and the caller should use the runtime.
func preciseSleep(d time.Duration) bool {
	if !short(d) {
		return false
	}
	ch := sleepChans.Get().(chan time.Time)
	ok := enqueue(d, ch)
	if ok {
		<-ch
	}
	sleepChans.Put(ch)
	return ok
}

// preciseAfter is After for a short wait, or nil when d is not one.
func preciseAfter(d time.Duration) <-chan time.Time {
	if !short(d) {
		return nil
	}
	ch := make(chan time.Time, 1)
	if !enqueue(d, ch) {
		return nil
	}
	return ch
}

// enqueue makes ch receive the time once d has passed. It reports false if
// the process could get no pollable timerfd.
func enqueue(d time.Duration, ch chan time.Time) bool {
	s := &service
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.opened {
		s.opened = true
		s.fd, s.file = timerfdOpen()
	}
	if s.file == nil {
		return false
	}
	now := sinceEpoch()
	at := now + int64(d)
	push(&s.heap, deadline{at: at, ch: ch})
	if !s.running {
		s.running = true
		arm(at, now)
		go serve()
	} else if at < s.armed {
		arm(at, now)
	}
	return true
}

// serve delivers due deadlines until none has been pending for idleExit.
func serve() {
	s := &service
	var expirations [8]byte
	var due []chan time.Time
	for {
		// Parks until the armed time. What Read returns is not needed:
		// nothing below acts on a deadline the clock has not reached.
		_, _ = s.file.Read(expirations[:])
		s.mu.Lock()
		now := sinceEpoch()
		for len(s.heap) > 0 && s.heap[0].at <= now {
			due = append(due, pop(&s.heap).ch)
		}
		switch {
		case len(s.heap) > 0:
			arm(s.heap[0].at, now)
		case len(due) > 0:
			arm(now+idleExit, now)
		case now >= s.armed:
			// The idle deadline passed with nothing to do. The next
			// short wait finds running false and starts a successor.
			s.running = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		t := time.Now()
		for i, ch := range due {
			ch <- t // never blocks: one send per use of a 1-buffered channel
			due[i] = nil
		}
		due = due[:0]
	}
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC of <time.h>; package syscall does not export it

// timerfdOpen returns a timerfd on the monotonic clock twice over: the
// descriptor, to arm, and a file on it whose Read parks in the runtime's
// poller. The file is nil if the kernel has no timerfd for the process or
// the poller will not take it.
func timerfdOpen() (int, *os.File) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_CLOEXEC|syscall.O_NONBLOCK, 0)
	if errno != 0 {
		return -1, nil
	}
	// NewFile hands a non-blocking descriptor to the poller. Whether the
	// poller took it shows in whether the file accepts a deadline; on one
	// it did not take, Read would return EAGAIN at once and serve would
	// spin.
	file := os.NewFile(fd, "timerfd")
	if err := file.SetReadDeadline(time.Time{}); err != nil {
		file.Close()
		return -1, nil
	}
	return int(fd), file
}

// arm sets the timerfd to expire at at, given that the clock reads now.
// Called with service.mu held, which is what keeps service.armed equal to
// what the kernel was last told. The timer is relative: now was read before
// the call, so the expiry can only be later than at, never earlier.
func arm(at, now int64) {
	service.armed = at
	rel := at - now
	if rel < 1 {
		rel = 1 // a zero value would disarm the timer
	}
	its := itimerspec{value: syscall.NsecToTimespec(rel)}
	// The fd is open and the pointer valid, so this cannot fail.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(service.fd), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
}

// push and pop keep *h a binary min-heap on deadline.at. container/heap
// would box every deadline into an interface, an allocation per Sleep.
func push(h *[]deadline, d deadline) {
	a := append(*h, d)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].at <= a[i].at {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
	*h = a
}

func pop(h *[]deadline) deadline {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = deadline{}
	a = a[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && a[l].at < a[least].at {
			least = l
		}
		if r := 2*i + 2; r < n && a[r].at < a[least].at {
			least = r
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
	return top
}

// KernelWaiter prepares the calling goroutine to wait in the kernel on a
// thread of its own and returns the wait, or returns nil when clk is not
// the wall clock (a Manual's time passes only in Advance, which no system
// call can wait for). It is for a loop that is the only sleeper on its
// path and delivers on the thread that waited — transport.Mem's scheduler
// — for which a channel hand-off from the shared service is a measured
// cost (DESIGN.md §10).
//
// nanosleep(2) is armed on a high-resolution timer, and PR_SET_TIMERSLACK
// takes the thread's default 50 µs slack off it. The goroutine is locked
// to its thread because the slack is a property of the thread. It must
// exit without unlocking: a locked goroutine's exit ends its thread, which
// keeps a 1 ns-slack thread out of the runtime's pool.
func KernelWaiter(clk Clock) func(time.Duration) {
	if _, wall := clk.(Real); !wall {
		return nil
	}
	runtime.LockOSThread()
	// A refused prctl leaves the default slack: waits overshoot by up to
	// 50 µs more and nothing else changes, so the error is not acted on.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	return func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		// An early return (EINTR) is harmless: the caller re-reads the
		// clock.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
