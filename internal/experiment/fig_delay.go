package experiment

import (
	"fmt"
	"time"

	"streamha/internal/failure"
	"streamha/internal/ha"
	"streamha/internal/machine"
)

// startSpikes launches a transient-failure injector on machine m with the
// given present-time fraction, returning it started.
func startSpikes(tb *testbed, m *machine.Machine, fraction float64, seed int64) *failure.Injector {
	p := tb.params
	inj := failure.NewInjector(failure.InjectorConfig{
		CPU:   m.CPU(),
		Clock: tb.cl.Clock(),
		// Random (exponential) arrivals; spike lengths are always fixed.
		Pattern:      failure.Poisson,
		Gap:          failure.GapForFraction(p.SpikeDuration, fraction),
		Duration:     p.SpikeDuration,
		LoadMin:      p.SpikeLoadMin,
		LoadMax:      p.SpikeLoadMax,
		Seed:         seed,
		InitialDelay: time.Duration(seed%7) * 37 * time.Millisecond, // decorrelate machines
	})
	inj.Start()
	return inj
}

// sampleUtilization averages a machine's utilization over the run, sampled
// every 20 ms in a background goroutine; the returned function stops
// sampling and yields the mean.
func sampleUtilization(tb *testbed, m *machine.Machine) func() float64 {
	stop := make(chan struct{})
	out := make(chan float64, 1)
	go func() {
		t := tb.cl.Clock().NewTicker(20 * time.Millisecond)
		defer t.Stop()
		var sum float64
		var n int
		for {
			select {
			case <-stop:
				if n == 0 {
					out <- 0
					return
				}
				out <- sum / float64(n)
				return
			case <-t.C():
				sum += m.CPU().Utilization()
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-out
	}
}

// Fig04Point is one (mode, failure severity) measurement.
type Fig04Point struct {
	Mode            ha.Mode
	FailureFraction float64
	// AvgCPU is the measured average utilization of the protected
	// subjob's primary machine — the paper's x-axis.
	AvgCPU float64
	// MeanDelay is the average end-to-end element delay.
	MeanDelay time.Duration
	// P99Delay is the 99th-percentile delay.
	P99Delay time.Duration
}

// Fig04Result reproduces Figure 4: average element delay under transient
// failures for NONE, AS, PS and Hybrid.
type Fig04Result struct {
	Points []Fig04Point
}

// Fig04Fractions are the default failure-time fractions (paper: 30–80%).
var Fig04Fractions = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// RunFig04 protects one subjob of the chain with each HA mode in turn and
// injects independent spike loads on its primary and secondary machines,
// sweeping the fraction of time failures are present.
//
// The application is sized to ~20% of each machine (100 µs per element at
// two PEs and 1000 elements/s): during a spike the machine is pinned near
// 100% and processing nearly stalls — the paper's ">8-fold delay increase
// during unavailability" — yet the system can still drain its backlog
// between spikes at the highest failure fraction, as the paper's testbed
// evidently could (its delays stay bounded at 80% failure time over 100 s
// runs).
func RunFig04(p Params, modes []ha.Mode, fractions []float64) (*Fig04Result, error) {
	p = p.withDefaults()
	p.PECost = 100 * time.Microsecond
	// Spike schedules are sparse (one spike per ~2 s at 30% failure time);
	// the run must span enough of them for stable means. Triple the base
	// run for this figure (the paper runs 100 s per point).
	p.Run *= 3
	if len(modes) == 0 {
		modes = []ha.Mode{ha.ModeNone, ha.ModeActive, ha.ModePassive, ha.ModeHybrid}
	}
	if len(fractions) == 0 {
		fractions = Fig04Fractions
	}
	res := &Fig04Result{}
	const protected = 1
	for _, mode := range modes {
		for _, frac := range fractions {
			tb, err := newTestbed(testbedConfig{
				params: p,
				modes:  uniformModes(p.Subjobs, protected, mode),
			})
			if err != nil {
				return nil, err
			}
			if err := tb.pipe.Start(); err != nil {
				tb.close()
				return nil, err
			}
			time.Sleep(p.Warmup)

			priM := tb.cl.Machine(fmt.Sprintf("p%d", protected))
			var injectors []*failure.Injector
			injectors = append(injectors, startSpikes(tb, priM, frac, p.Seed))
			if mode != ha.ModeNone {
				secM := tb.cl.Machine(fmt.Sprintf("s%d", protected))
				injectors = append(injectors, startSpikes(tb, secM, frac, p.Seed+1000))
			}
			utilDone := sampleUtilization(tb, priM)

			warmup := tb.pipe.Sink().Delays().Window()
			time.Sleep(p.Run)
			for _, inj := range injectors {
				inj.Stop()
			}
			avgCPU := utilDone()
			mean := tb.pipe.Sink().Delays().MeanSince(warmup)
			p99 := tb.pipe.Sink().Delays().Percentile(99)
			tb.close()

			res.Points = append(res.Points, Fig04Point{
				Mode:            mode,
				FailureFraction: frac,
				AvgCPU:          avgCPU,
				MeanDelay:       mean,
				P99Delay:        p99,
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig04Result) Table() Table {
	t := Table{
		Title:  "Figure 4: average element delay vs CPU usage under transient failures",
		Note:   "paper shape: AS lowest and flat (~90ms), Hybrid flat slightly above, NONE grows, PS worst",
		Header: []string{"mode", "failure-time", "avg-cpu", "mean-delay(ms)", "p99(ms)"},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			pt.Mode.String(),
			fmt.Sprintf("%.0f%%", pt.FailureFraction*100),
			fmt.Sprintf("%.0f%%", pt.AvgCPU*100),
			ms(pt.MeanDelay),
			ms(pt.P99Delay),
		})
	}
	return t
}

// Fig05Point is one multiplexing measurement.
type Fig05Point struct {
	FailureFraction float64
	// SharedDelay is the mean delay with three primaries sharing one
	// secondary machine.
	SharedDelay time.Duration
	// DedicatedDelay is the mean delay with one secondary per primary.
	DedicatedDelay time.Duration
}

// Fig05Result reproduces Figure 5: E2E delay vs transient-failure time
// percentage with a multiplexed secondary.
type Fig05Result struct {
	Points []Fig05Point
}

// Fig05Fractions are the default failure fractions (paper: 5–30%).
var Fig05Fractions = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}

// RunFig05 deploys three hybrid subjobs whose standbys share one machine,
// injects spikes on the primaries only, and compares against dedicated
// standbys.
func RunFig05(p Params, fractions []float64) (*Fig05Result, error) {
	p = p.withDefaults()
	p.PECost = 100 * time.Microsecond
	p.Run *= 3
	p.Subjobs = 3
	if len(fractions) == 0 {
		fractions = Fig05Fractions
	}
	res := &Fig05Result{}
	run := func(frac float64, shared bool) (time.Duration, error) {
		secondaries := make([]string, p.Subjobs)
		if shared {
			for i := range secondaries {
				secondaries[i] = "s-shared"
			}
		}
		tb, err := newTestbed(testbedConfig{
			params:      p,
			modes:       allModes(p.Subjobs, ha.ModeHybrid),
			secondaries: secondaries,
		})
		if err != nil {
			return 0, err
		}
		defer tb.close()
		if err := tb.pipe.Start(); err != nil {
			return 0, err
		}
		time.Sleep(p.Warmup)
		var injectors []*failure.Injector
		for i := 0; i < p.Subjobs; i++ {
			m := tb.cl.Machine(fmt.Sprintf("p%d", i))
			injectors = append(injectors, startSpikes(tb, m, frac, p.Seed+int64(i)*77))
		}
		warmup := tb.pipe.Sink().Delays().Window()
		time.Sleep(p.Run)
		for _, inj := range injectors {
			inj.Stop()
		}
		return tb.pipe.Sink().Delays().MeanSince(warmup), nil
	}
	for _, frac := range fractions {
		sharedDelay, err := run(frac, true)
		if err != nil {
			return nil, err
		}
		dedicated, err := run(frac, false)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig05Point{
			FailureFraction: frac,
			SharedDelay:     sharedDelay,
			DedicatedDelay:  dedicated,
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Fig05Result) Table() Table {
	t := Table{
		Title:  "Figure 5: E2E delay vs transient failure time (3 primaries sharing 1 secondary)",
		Note:   "paper shape: shared ≈ dedicated up to ~20% failure time, rises (~+80%) at 30%",
		Header: []string{"failure-time", "shared(ms)", "dedicated(ms)", "shared/dedicated"},
	}
	for _, pt := range r.Points {
		ratio := 0.0
		if pt.DedicatedDelay > 0 {
			ratio = float64(pt.SharedDelay) / float64(pt.DedicatedDelay)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", pt.FailureFraction*100),
			ms(pt.SharedDelay),
			ms(pt.DedicatedDelay),
			f2(ratio),
		})
	}
	return t
}
