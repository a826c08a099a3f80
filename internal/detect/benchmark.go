package detect

import (
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
)

// BenchmarkConfig configures a benchmark (probe-based) detector.
type BenchmarkConfig struct {
	// Machine is the monitored machine; the probe executes on it, like the
	// paper's embedded standard data set.
	Machine *machine.Machine
	// Clock is the time source.
	Clock clock.Clock
	// Monitor samples the machine's CPU load at fine granularity.
	Monitor *machine.LoadMonitor
	// Granularity is how often the load is checked (the paper uses 50 ms;
	// experiments here run at one-tenth scale).
	Granularity time.Duration
	// LoadThreshold is the utilization above which the probe is triggered
	// (L_th in the paper).
	LoadThreshold float64
	// ProbeWork is the CPU work of processing the standard data set, and
	// so the probe's duration on an idle machine (full CPU share).
	ProbeWork time.Duration
	// Factor is the multiple of ProbeWork beyond which a failure is
	// declared (P_th in the paper).
	Factor float64
	// Cooldown is how long after a declaration the detector stays quiet
	// before probing again (default 100 ms), so one excursion yields one
	// declaration.
	Cooldown time.Duration
}

// Benchmark is the probe-based detector the paper evaluates and rejects:
// when the sampled load exceeds LoadThreshold it processes a standard data
// set and declares a failure if the measured time exceeds the idle-machine
// baseline by Factor. Because the probe contends with whatever the
// application is doing at that moment, bursty traffic inflates probe times
// even at moderate loads — the over-sensitivity and false alarms of
// Figures 12 and 13 emerge from that contention rather than being
// hard-coded.
type Benchmark struct {
	cfg BenchmarkConfig

	mu          sync.Mutex
	events      []Event
	lastDeclare time.Time
	started     bool
	stop        chan struct{}
	done        chan struct{}
}

// NewBenchmark creates a benchmark detector.
func NewBenchmark(cfg BenchmarkConfig) *Benchmark {
	if cfg.Factor <= 0 {
		cfg.Factor = 2
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 100 * time.Millisecond
	}
	return &Benchmark{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the sampling loop.
func (b *Benchmark) Start() {
	b.mu.Lock()
	if b.started {
		b.mu.Unlock()
		return
	}
	b.started = true
	b.mu.Unlock()
	go b.run()
}

// Stop halts the detector.
func (b *Benchmark) Stop() {
	b.mu.Lock()
	if !b.started {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	<-b.done
}

func (b *Benchmark) run() {
	defer close(b.done)
	t := b.cfg.Clock.NewTicker(b.cfg.Granularity)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C():
			b.sample()
		}
	}
}

func (b *Benchmark) sample() {
	util := b.cfg.Monitor.Utilization()
	if util <= b.cfg.LoadThreshold {
		return
	}
	b.mu.Lock()
	cooling := !b.lastDeclare.IsZero() && b.cfg.Clock.Now().Sub(b.lastDeclare) < b.cfg.Cooldown
	b.mu.Unlock()
	if cooling {
		return
	}

	start := b.cfg.Clock.Now()
	b.cfg.Machine.CPU().Execute(b.cfg.ProbeWork)
	elapsed := b.cfg.Clock.Since(start)
	if float64(elapsed) <= float64(b.cfg.ProbeWork)*b.cfg.Factor {
		return
	}
	now := b.cfg.Clock.Now()
	b.mu.Lock()
	b.lastDeclare = now
	b.events = append(b.events, Event{Type: EventFailure, At: now})
	b.mu.Unlock()
}

// Events returns a copy of the declared events.
func (b *Benchmark) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}
