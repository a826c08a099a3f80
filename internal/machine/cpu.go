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
// At 3 ms a full slice is a runtime timer (clock.Real serves only waits
// under 2 ms precisely), which an idle process rounds up by at most a
// millisecond, and a long activity wakes a few hundred times a second at
// most.
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
		// A slice this short takes what it asks for plus about 50 µs:
		// clock.Real waits for anything under 2 ms on a kernel timer
		// (clock/precise_linux.go; on a runtime timer in an idle process it
		// took 1.1 ms whatever it asked for, and still does off Linux). The
		// floor stays: every sleep is a wake-up of the timer service and of
		// this goroutine, which no wait can undercut, so work too small to
		// be worth one is rounded up to a sleep the timer can keep.
		if wall < 100*time.Microsecond {
			wall = 100 * time.Microsecond
		}
		// Account the measured sleep, not the requested one: every sleep
		// overshoots (by a scheduling delay at best, by a millisecond on a
		// runtime timer), and charging only the nominal duration would
		// silently inflate every cost in the model.
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
