//go:build !linux

package transport

import (
	"time"

	"streamha/internal/clock"
)

// kernelWaiter has no implementation off Linux (see wait_linux.go): the
// scheduler keeps waiting on clock.Clock.After there.
func kernelWaiter(clock.Clock) func(time.Duration) { return nil }
