// Package failure generates the failure workloads of the paper's
// evaluation: transient CPU-load spikes on individual machines (the
// computation-intensive co-located program of Section V-A), fail-stop
// crashes, and the synthetic 83-machine cluster trace behind the
// motivation figures.
package failure

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
)

// Pattern selects the spike arrival process.
type Pattern int

// Arrival patterns, mirroring the paper's regular and Poisson arrivals.
const (
	Regular Pattern = iota
	Poisson
)

// Spike is one ground-truth transient failure interval.
type Spike struct {
	Start time.Time
	End   time.Time
}

// InjectorConfig parameterizes a transient-failure injector on one machine.
type InjectorConfig struct {
	// CPU is the target machine's CPU.
	CPU *machine.CPU
	// Clock is the time source.
	Clock clock.Clock
	// Pattern is the arrival process of spikes.
	Pattern Pattern
	// Gap is the (mean, for Poisson) idle time between the end of one spike
	// and the start of the next.
	Gap time.Duration
	// Duration is the length of every spike, whatever the Pattern: the
	// measured cluster's spikes are short and bounded (Figure 3), and
	// exponential durations would let rare very long joint stalls dominate
	// the means.
	Duration time.Duration
	// LoadMin and LoadMax bound the spike's background load; each spike
	// draws uniformly from the range. The paper's spikes push total CPU to
	// 95–100%. Outside spikes the background load is zero.
	LoadMin, LoadMax float64
	// InitialDelay postpones the first spike.
	InitialDelay time.Duration
	// Seed makes the spike schedule reproducible.
	Seed int64
}

// GapForFraction returns the idle gap that makes transient failures present
// for the given fraction of time at the given spike duration — the knob
// behind the paper's "percentage of transient failure time" axes.
func GapForFraction(duration time.Duration, fraction float64) time.Duration {
	if fraction <= 0 {
		return time.Duration(math.MaxInt64)
	}
	if fraction >= 1 {
		return 0
	}
	return time.Duration(float64(duration) * (1 - fraction) / fraction)
}

// Injector drives transient-failure load on one machine.
type Injector struct {
	cfg InjectorConfig
	rng *rand.Rand

	mu      sync.Mutex
	spikes  []Spike
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewInjector creates an injector; call Start to begin injecting.
func NewInjector(cfg InjectorConfig) *Injector {
	if cfg.LoadMax < cfg.LoadMin {
		cfg.LoadMax = cfg.LoadMin
	}
	return &Injector{
		cfg: cfg,
		// math/rand draws are visibly correlated across nearby seeds (the
		// first ExpFloat64 of seeds 1 and 1001 differ by 2%), which would
		// synchronize "independent" failure schedules across machines.
		// Scrambling the seed through splitmix64 restores independence
		// while keeping runs reproducible.
		rng:  rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed))))),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// splitmix64 is the standard 64-bit finalizer used to decorrelate seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Start launches the injection loop.
func (in *Injector) Start() {
	in.mu.Lock()
	if in.started {
		in.mu.Unlock()
		return
	}
	in.started = true
	in.mu.Unlock()
	go in.run()
}

// Stop halts injection and clears the background load.
func (in *Injector) Stop() {
	in.mu.Lock()
	if !in.started {
		in.mu.Unlock()
		return
	}
	in.mu.Unlock()
	select {
	case <-in.stop:
	default:
		close(in.stop)
	}
	<-in.done
	in.cfg.CPU.SetBackgroundLoad(0)
}

// Spikes returns the ground-truth spike intervals injected so far.
func (in *Injector) Spikes() []Spike {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Spike(nil), in.spikes...)
}

func (in *Injector) run() {
	defer close(in.done)
	in.cfg.CPU.SetBackgroundLoad(0)
	if in.cfg.InitialDelay > 0 && !in.sleep(in.cfg.InitialDelay) {
		return
	}
	for {
		if !in.sleep(in.draw(in.cfg.Gap)) {
			return
		}
		load := in.cfg.LoadMin
		in.mu.Lock()
		if in.cfg.LoadMax > in.cfg.LoadMin {
			load += in.rng.Float64() * (in.cfg.LoadMax - in.cfg.LoadMin)
		}
		in.mu.Unlock()

		start := in.cfg.Clock.Now()
		in.cfg.CPU.SetBackgroundLoad(load)
		ok := in.sleep(in.cfg.Duration)
		in.cfg.CPU.SetBackgroundLoad(0)
		in.mu.Lock()
		in.spikes = append(in.spikes, Spike{Start: start, End: in.cfg.Clock.Now()})
		in.mu.Unlock()
		if !ok {
			return
		}
	}
}

// draw returns mean for Regular arrivals and an exponential variate with
// that mean for Poisson arrivals.
func (in *Injector) draw(mean time.Duration) time.Duration {
	if in.cfg.Pattern == Regular || mean <= 0 {
		return mean
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	d := time.Duration(float64(mean) * in.rng.ExpFloat64())
	// Clamp pathological draws so a single spike cannot dominate a run.
	if d > 10*mean {
		d = 10 * mean
	}
	return d
}

func (in *Injector) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-in.stop:
		return false
	case <-in.cfg.Clock.After(d):
		return true
	}
}

// InjectOnce raises the background load on cpu to load for dur, blocking
// until the outage ends. It returns the ground-truth interval. Used by the
// switchover/rollback experiments (Figures 9 and 10), which overload the
// primary for fixed periods.
func InjectOnce(cpu *machine.CPU, clk clock.Clock, load float64, dur time.Duration, base float64) Spike {
	start := clk.Now()
	cpu.SetBackgroundLoad(load)
	clk.Sleep(dur)
	cpu.SetBackgroundLoad(base)
	return Spike{Start: start, End: clk.Now()}
}
