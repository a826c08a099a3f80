// Package machine simulates the shared cluster machines of the paper's
// testbed: each machine executes the work of its hosted processing
// elements, checkpoint managers and heartbeat responders on a CPU whose
// available share shrinks when co-located background load spikes. A
// transient failure is nothing more than a background-load spike close to
// 100%, which slows every activity on the machine — including heartbeat
// replies — by orders of magnitude, exactly the symptom the paper's
// detectors observe.
package machine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"streamha/internal/clock"
)

// minShare is the floor on the CPU share available to application
// activities. Even a machine at 100% background load makes infinitesimal
// progress, mirroring a real OS scheduler; the floor keeps sleeps finite.
const minShare = 0.002

// maxSlice bounds how long Execute sleeps before re-reading the load, so
// that load changes take effect quickly relative to experiment timescales.
// It is a multiple of the millisecond the Go runtime rounds an idle
// process's timers up to (see execute), so a slice takes about as long as
// it asks for and an activity wakes a few hundred times a second at most.
const maxSlice = 3 * time.Millisecond

// CPU models one machine's processor. Application activities call Execute
// with the amount of CPU work they need; the wall-clock time taken is
// work / share, where share is the CPU fraction left over by background
// load, divided evenly among concurrently executing activities.
type CPU struct {
	clk clock.Clock

	mu      sync.Mutex
	bgLoad  float64
	stopped bool

	active   atomic.Int64
	workDone atomic.Int64 // executed app work in nanoseconds, for utilization sampling
}

// NewCPU returns a CPU driven by clk.
func NewCPU(clk clock.Clock) *CPU {
	return &CPU{clk: clk}
}

// SetBackgroundLoad sets the fraction of the CPU consumed by co-located
// background jobs, in [0, 1]. The failure injector raises this during
// transient unavailability.
func (c *CPU) SetBackgroundLoad(load float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bgLoad = math.Min(1, math.Max(0, load))
}

// BackgroundLoad returns the current injected background load.
func (c *CPU) BackgroundLoad() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bgLoad
}

// setStopped freezes (true) or thaws (false) the CPU. Execute calls on a
// stopped CPU abandon their remaining work and return, so that the
// goroutines of a fail-stopped machine can be torn down promptly.
func (c *CPU) setStopped(stopped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped == stopped {
		return
	}
	c.stopped = stopped
}

// priorityShare returns the share for latency-sensitive work: everything
// the background leaves, regardless of app activity.
func (c *CPU) priorityShare() (float64, bool) {
	c.mu.Lock()
	bg := c.bgLoad
	stopped := c.stopped
	c.mu.Unlock()
	s := 1 - bg
	if s < minShare {
		s = minShare
	}
	return s, stopped
}

// share returns the CPU fraction currently available to one activity and
// whether the CPU is stopped.
func (c *CPU) share() (float64, bool) {
	c.mu.Lock()
	bg := c.bgLoad
	stopped := c.stopped
	c.mu.Unlock()
	n := c.active.Load()
	if n < 1 {
		n = 1
	}
	s := (1 - bg) / float64(n)
	if s < minShare {
		s = minShare
	}
	return s, stopped
}

// Execute consumes work CPU-time, sleeping for work scaled by the inverse
// of the available share. It re-reads the load every slice so that spikes
// starting or ending mid-execution take effect. If the CPU is stopped
// (machine crash), Execute abandons the remaining work and returns.
func (c *CPU) Execute(work time.Duration) {
	c.execute(work, false)
}

// ExecutePriority is Execute for short latency-sensitive work (heartbeat
// replies): it receives the full share left over by background load
// without splitting it with concurrently executing application
// activities, the way an OS scheduler favors a briefly-runnable
// interactive thread over long-running batch work. Background load still
// slows it down in full — which is precisely the signal heartbeat
// detection relies on.
func (c *CPU) ExecutePriority(work time.Duration) {
	c.execute(work, true)
}

func (c *CPU) execute(work time.Duration, priority bool) {
	if work <= 0 {
		return
	}
	if !priority {
		c.active.Add(1)
		defer c.active.Add(-1)
	}
	remaining := work
	for remaining > 0 {
		var s float64
		var stopped bool
		if priority {
			s, stopped = c.priorityShare()
		} else {
			s, stopped = c.share()
		}
		if stopped {
			return
		}
		wall := time.Duration(float64(remaining) / s)
		if wall > maxSlice {
			wall = maxSlice
		}
		// This floor is 1.1 ms in practice. When every P is idle the Go
		// runtime waits for its next timer in epoll_wait, whose timeout is
		// whole milliseconds (runtime/netpoll_epoll.go rounds a delay under
		// 1e6 ns up to 1 ms), so on an idle process time.Sleep of 100, 200
		// or 500 µs all take about 1.1 ms; the kernel's own timer slack is
		// 50 µs of that. transport.Mem's scheduler stopped waiting on
		// runtime timers for this reason (transport/wait_linux.go). Execute
		// deliberately has not: it moves tcp-active and stall-hybrid for a
		// reason of its own and is left to its own change.
		if wall < 100*time.Microsecond {
			wall = 100 * time.Microsecond
		}
		// Account the measured sleep, not the requested one: the runtime's
		// rounding overshoots every short sleep, and charging only the
		// nominal duration would silently inflate every cost in the model.
		start := c.clk.Now()
		c.clk.Sleep(wall)
		elapsed := c.clk.Since(start)
		if elapsed < wall {
			elapsed = wall
		}
		done := time.Duration(float64(elapsed) * s)
		if done > remaining {
			done = remaining
		}
		remaining -= done
		c.workDone.Add(int64(done))
	}
}

// WorkDone returns the cumulative application work executed, in
// nanoseconds. The load monitor samples it to estimate app utilization.
func (c *CPU) WorkDone() time.Duration {
	return time.Duration(c.workDone.Load())
}

// Utilization returns the machine's instantaneous total CPU utilization
// estimate in [0, 1]: injected background load plus the share consumed by
// currently executing application activities.
func (c *CPU) Utilization() float64 {
	c.mu.Lock()
	bg := c.bgLoad
	c.mu.Unlock()
	app := 0.0
	if c.active.Load() > 0 {
		app = 1 - bg // active app work soaks up whatever the background leaves
	}
	return math.Min(1, bg+app)
}
