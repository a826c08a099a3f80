//go:build !linux

package clock

import "time"

// The precise timer service and KernelWaiter have no implementation off
// Linux (see precise_linux.go): every wait stays on a runtime timer there.

func preciseSleep(time.Duration) bool { return false }

func preciseAfter(time.Duration) <-chan time.Time { return nil }

// KernelWaiter returns nil: the caller keeps waiting on Clock.After.
func KernelWaiter(Clock) func(time.Duration) { return nil }
