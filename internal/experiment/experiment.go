// Package experiment regenerates every table and figure of the paper's
// evaluation (Section II-B and Section V). Each figure has one runner
// returning a typed result that renders as a text table; the bench harness
// (bench_test.go) and the streamha-bench command both call these runners.
//
// All experiments run at one-fifth the paper's timescale (TimeScale): a
// 100 ms heartbeat becomes 20 ms, a 50 ms checkpoint interval becomes
// 10 ms, a 10 s outage becomes 2 s. The claims under reproduction —
// orderings, ratios and crossovers — are invariant to this scaling, and
// the full harness completes in minutes instead of hours. The factor is
// chosen so the smallest interval (the heartbeat) stays an order of
// magnitude above single-core host scheduling jitter.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/pe"
	"streamha/internal/subjob"
)

// TimeScale is the factor by which paper durations are divided.
const TimeScale = 5

// Params are the shared experiment parameters; zero fields take the
// defaults of DefaultParams, which mirror Section V-A at one-fifth scale.
type Params struct {
	// Rate is the source rate in elements per second (paper: 1000/s).
	Rate float64
	// PECost is the CPU work per element per PE. The default 300 µs gives
	// the paper's ~60% application CPU usage at two PEs per machine and
	// 1000 elements/s.
	PECost time.Duration
	// StatePad is the PE internal state size in element-equivalents
	// (paper: 200).
	StatePad int
	// Subjobs is the chain length (paper: 4 subjobs of 2 PEs each).
	Subjobs int
	// PEsPerSubjob is the PE count per subjob.
	PEsPerSubjob int
	// CheckpointInterval (paper 50 ms → 10 ms).
	CheckpointInterval time.Duration
	// HeartbeatInterval (paper 100 ms → 20 ms).
	HeartbeatInterval time.Duration
	// Latency is the one-way network latency (1 Gbps LAN → 200 µs).
	Latency time.Duration
	// Run is the measured portion of each run (paper: 100 s → seconds
	// here; figures override as needed).
	Run time.Duration
	// Warmup is discarded before measurement starts.
	Warmup time.Duration
	// SpikeLoad is the background load injected during transient failures
	// (pushes total CPU to 95–100%).
	SpikeLoadMin, SpikeLoadMax float64
	// SpikeDuration is the default transient failure length (paper ~3 s →
	// 600 ms).
	SpikeDuration time.Duration
	// Seed makes failure schedules reproducible.
	Seed int64
}

// DefaultParams returns the Section V-A setup at one-fifth timescale.
func DefaultParams() Params {
	return Params{
		Rate:               1000,
		PECost:             300 * time.Microsecond,
		StatePad:           200,
		Subjobs:            4,
		PEsPerSubjob:       2,
		CheckpointInterval: 10 * time.Millisecond,
		HeartbeatInterval:  20 * time.Millisecond,
		Latency:            200 * time.Microsecond,
		Run:                3 * time.Second,
		Warmup:             500 * time.Millisecond,
		SpikeLoadMin:       0.95,
		SpikeLoadMax:       1.0,
		SpikeDuration:      600 * time.Millisecond,
		Seed:               1,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Rate == 0 {
		p.Rate = d.Rate
	}
	if p.PECost == 0 {
		p.PECost = d.PECost
	}
	if p.StatePad == 0 {
		p.StatePad = d.StatePad
	}
	if p.Subjobs == 0 {
		p.Subjobs = d.Subjobs
	}
	if p.PEsPerSubjob == 0 {
		p.PEsPerSubjob = d.PEsPerSubjob
	}
	if p.CheckpointInterval == 0 {
		p.CheckpointInterval = d.CheckpointInterval
	}
	if p.HeartbeatInterval == 0 {
		p.HeartbeatInterval = d.HeartbeatInterval
	}
	if p.Latency == 0 {
		p.Latency = d.Latency
	}
	if p.Run == 0 {
		p.Run = d.Run
	}
	if p.Warmup == 0 {
		p.Warmup = d.Warmup
	}
	if p.SpikeLoadMin == 0 {
		p.SpikeLoadMin = d.SpikeLoadMin
	}
	if p.SpikeLoadMax == 0 {
		p.SpikeLoadMax = d.SpikeLoadMax
	}
	if p.SpikeDuration == 0 {
		p.SpikeDuration = d.SpikeDuration
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// testbed is one deployed chain job with named machines.
type testbed struct {
	params     Params
	cl         *cluster.Cluster
	pipe       *ha.Pipeline
	primaryIDs []string // primary machine IDs, in chain order
}

// testbedConfig controls chain construction.
type testbedConfig struct {
	params Params
	// modes per subjob; len must equal params.Subjobs.
	modes []ha.Mode
	// secondaries per subjob ("" lets the builder allocate s<i>); sharing
	// an ID multiplexes standbys onto one machine.
	secondaries []string
	// hybrid/ps option overrides.
	hybrid core.Options
	ps     ha.PSOptions
	// approx is the error budget of approx-mode subjobs.
	approx core.ErrorBudget
	// hotSlots concentrates each PE's writes on the first hotSlots state
	// slots (see pe.CounterLogic.HotSlots), giving the approx mode's
	// partial frames a hot/cold split to exploit; 0 spreads writes evenly.
	hotSlots int
	// burst shaping for the source, for detector experiments.
	burstOn, burstOff time.Duration
	trackIDs          bool
}

// newTestbed deploys the chain: one machine per primary, per requested
// secondary, plus source and sink machines.
func newTestbed(cfg testbedConfig) (*testbed, error) {
	p := cfg.params.withDefaults()
	if len(cfg.modes) != p.Subjobs {
		return nil, fmt.Errorf("experiment: %d modes for %d subjobs", len(cfg.modes), p.Subjobs)
	}
	cl := cluster.New(cluster.Config{Latency: p.Latency})
	cl.MustAddMachine("m-src")
	cl.MustAddMachine("m-sink")

	defs := make([]ha.SubjobDef, p.Subjobs)
	added := map[string]bool{}
	for i := 0; i < p.Subjobs; i++ {
		pri := fmt.Sprintf("p%d", i)
		cl.MustAddMachine(pri)
		sec := ""
		if cfg.modes[i] != ha.ModeNone {
			sec = fmt.Sprintf("s%d", i)
			if len(cfg.secondaries) > i && cfg.secondaries[i] != "" {
				sec = cfg.secondaries[i]
			}
			if !added[sec] {
				cl.MustAddMachine(sec)
				added[sec] = true
			}
		}
		pes := make([]subjob.PESpec, p.PEsPerSubjob)
		for j := range pes {
			pes[j] = subjob.PESpec{
				Name:     fmt.Sprintf("pe%d", j),
				NewLogic: newHotCounterLogic(p.StatePad, cfg.hotSlots),
				Cost:     p.PECost,
			}
		}
		defs[i] = ha.SubjobDef{
			PEs:       pes,
			Mode:      cfg.modes[i],
			Primary:   pri,
			Secondary: sec,
			// Small batches keep pause latency and recovery-phase
			// quantization well below the measured effects.
			BatchSize: 16,
		}
	}

	hybrid := cfg.hybrid
	if hybrid.CheckpointInterval == 0 {
		hybrid.CheckpointInterval = p.CheckpointInterval
	}
	if hybrid.HeartbeatInterval == 0 {
		hybrid.HeartbeatInterval = p.HeartbeatInterval
	}
	ps := cfg.ps
	if ps.CheckpointInterval == 0 {
		ps.CheckpointInterval = p.CheckpointInterval
	}
	if ps.HeartbeatInterval == 0 {
		ps.HeartbeatInterval = p.HeartbeatInterval
	}

	pipe, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "job",
		Source:      ha.SourceDef{Machine: "m-src", Rate: p.Rate, BurstOn: cfg.burstOn, BurstOff: cfg.burstOff},
		SinkMachine: "m-sink",
		Subjobs:     defs,
		Hybrid:      hybrid,
		PS:          ps,
		Approx:      cfg.approx,
		AckInterval: p.CheckpointInterval,
		TrackIDs:    cfg.trackIDs,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	tb := &testbed{params: p, cl: cl, pipe: pipe}
	for i := range defs {
		tb.primaryIDs = append(tb.primaryIDs, defs[i].Primary)
	}
	return tb, nil
}

func newCounterLogic(pad int) func() pe.Logic {
	return func() pe.Logic { return &pe.CounterLogic{Pad: pad} }
}

func newHotCounterLogic(pad, hotSlots int) func() pe.Logic {
	return func() pe.Logic { return &pe.CounterLogic{Pad: pad, HotSlots: hotSlots} }
}

func (tb *testbed) close() {
	tb.pipe.Stop()
	tb.cl.Close()
}

// uniformModes returns a mode slice with protected holding mode and all
// other subjobs running unprotected.
func uniformModes(n int, protected int, mode ha.Mode) []ha.Mode {
	modes := make([]ha.Mode, n)
	for i := range modes {
		modes[i] = ha.ModeNone
	}
	if protected >= 0 && protected < n {
		modes[protected] = mode
	}
	return modes
}

// allModes returns a slice with every subjob in the given mode.
func allModes(n int, mode ha.Mode) []ha.Mode {
	modes := make([]ha.Mode, n)
	for i := range modes {
		modes[i] = mode
	}
	return modes
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	if t.Note != "" {
		b.WriteString(t.Note)
		b.WriteString("\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// ms formats a duration as milliseconds with one decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
