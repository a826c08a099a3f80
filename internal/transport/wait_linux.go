//go:build linux

package transport

import (
	"runtime"
	"syscall"
	"time"

	"streamha/internal/clock"
)

// kernelWaiter prepares the calling goroutine to wait for wheel deadlines
// in the kernel and returns the wait, or returns nil when clk is not the
// wall clock (a clock.Manual's time passes only in Advance, which no
// system call can wait for).
//
// A runtime timer cannot do this job. When every P is idle the Go runtime
// sleeps in epoll_wait, whose timeout is whole milliseconds
// (runtime/netpoll_epoll.go rounds any delay under 1e6 ns up to 1 ms), so
// time.After(200µs) in an otherwise idle process fires after about 1.1 ms.
// nanosleep(2) is armed on a high-resolution timer instead, and
// PR_SET_TIMERSLACK takes the thread's default 50 µs slack off it.
//
// The goroutine is locked to its thread because the slack is a property of
// the thread. It must exit without unlocking: a locked goroutine's exit
// ends its thread, which keeps a 1 ns-slack thread out of the runtime's
// pool.
func kernelWaiter(clk clock.Clock) func(time.Duration) {
	if _, wall := clk.(clock.Real); !wall {
		return nil
	}
	runtime.LockOSThread()
	// A refused prctl leaves the default slack: waits overshoot by up to
	// 50 µs more and nothing else changes, so the error is not acted on.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	return func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		// An early return (EINTR) is harmless: the scheduler re-reads the
		// clock and the wheel releases nothing before its tick.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
