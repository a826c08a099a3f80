package experiment

import (
	"fmt"
	"time"

	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/transport"
)

// Fig06Config is one HA configuration of the traffic comparison.
type Fig06Config struct {
	Label              string
	Mode               ha.Mode
	CheckpointInterval time.Duration
}

// Fig06Point is one (configuration, rate) measurement.
type Fig06Point struct {
	Label string
	Rate  float64
	// Elements is the total element units transmitted during the measured
	// window (data + checkpoint traffic), the y-axis of Figure 6.
	Elements int64
	// DataElements and CheckpointElements decompose it.
	DataElements       int64
	CheckpointElements int64
}

// Fig06Result reproduces Figure 6: message overhead vs data rate for NONE,
// AS, PS (two checkpoint intervals) and Hybrid (two checkpoint intervals).
type Fig06Result struct {
	Window time.Duration
	Points []Fig06Point
}

// Fig06Rates are the default source rates. This figure involves no
// failure/detection timing, so it runs with real checkpoint intervals
// (100/500 ms); the rate sweep tops out at 10k elements/s — the bottom of
// the paper's 10–25k range — because beyond that the simulator host
// saturates on sleep syscalls and the measured ratios reflect host
// contention rather than protocol traffic. Traffic is proportional to
// rate for every mode, so the ratios are rate-invariant.
var Fig06Rates = []float64{4000, 6000, 8000, 10000}

// defaultFig06Configs mirror the paper's six lines (paper-scale
// checkpoint intervals).
func defaultFig06Configs() []Fig06Config {
	return []Fig06Config{
		{Label: "none", Mode: ha.ModeNone},
		{Label: "as", Mode: ha.ModeActive},
		{Label: "ps-100ms", Mode: ha.ModePassive, CheckpointInterval: 100 * time.Millisecond},
		{Label: "ps-500ms", Mode: ha.ModePassive, CheckpointInterval: 500 * time.Millisecond},
		{Label: "hybrid-100ms", Mode: ha.ModeHybrid, CheckpointInterval: 100 * time.Millisecond},
		{Label: "hybrid-500ms", Mode: ha.ModeHybrid, CheckpointInterval: 500 * time.Millisecond},
	}
}

// RunFig06 measures total transmitted element units over a fixed window
// for each configuration and rate, with every subjob protected by the
// configuration's mode and no failures injected.
func RunFig06(p Params, configs []Fig06Config, rates []float64) (*Fig06Result, error) {
	p = p.withDefaults()
	// Lighter PEs keep machines below saturation at 25k elements/s.
	p.PECost = 10 * time.Microsecond
	p.Run = 3 * time.Second
	if len(configs) == 0 {
		configs = defaultFig06Configs()
	}
	if len(rates) == 0 {
		rates = Fig06Rates
	}
	res := &Fig06Result{Window: p.Run}
	for _, cfg := range configs {
		for _, rate := range rates {
			pp := p
			pp.Rate = rate
			if cfg.CheckpointInterval > 0 {
				pp.CheckpointInterval = cfg.CheckpointInterval
			}
			tb, err := newTestbed(testbedConfig{
				params: pp,
				modes:  allModes(pp.Subjobs, cfg.Mode),
			})
			if err != nil {
				return nil, err
			}
			if err := tb.pipe.Start(); err != nil {
				tb.close()
				return nil, err
			}
			time.Sleep(pp.Warmup)
			before := tb.cl.Stats()
			time.Sleep(pp.Run)
			delta := tb.cl.Stats().Sub(before)
			tb.close()
			res.Points = append(res.Points, Fig06Point{
				Label:              cfg.Label,
				Rate:               rate,
				Elements:           delta.TotalElements(),
				DataElements:       delta.DataElements(),
				CheckpointElements: delta.CheckpointElements(),
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig06Result) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("Figure 6: message overhead vs data rate (%.1fs window)", r.Window.Seconds()),
		Note:   "paper shape: AS ≈ 4× NONE; PS and Hybrid ≈ +10% over NONE, insensitive to checkpoint interval",
		Header: []string{"config", "rate(elem/s)", "total-elems", "data-elems", "ckpt-elems", "vs-none"},
	}
	baseline := map[float64]int64{}
	for _, pt := range r.Points {
		if pt.Label == "none" {
			baseline[pt.Rate] = pt.Elements
		}
	}
	for _, pt := range r.Points {
		ratio := "-"
		if b := baseline[pt.Rate]; b > 0 {
			ratio = f2(float64(pt.Elements) / float64(b))
		}
		t.Rows = append(t.Rows, []string{
			pt.Label,
			fmt.Sprintf("%.0f", pt.Rate),
			fmt.Sprintf("%d", pt.Elements),
			fmt.Sprintf("%d", pt.DataElements),
			fmt.Sprintf("%d", pt.CheckpointElements),
			ratio,
		})
	}
	return t
}

// Fig11Point is one (PE count) measurement.
type Fig11Point struct {
	PEsPerSubjob int
	// CheckpointElements is the checkpoint traffic over the window — the
	// y-axis of Figure 11.
	CheckpointElements int64
}

// Fig11Result reproduces Figure 11: hybrid checkpoint overhead vs the
// number of PEs per machine.
type Fig11Result struct {
	Window time.Duration
	Points []Fig11Point
}

// Fig11PECounts is the default sweep.
var Fig11PECounts = []int{1, 2, 4, 6, 8}

// RunFig11 protects one subjob with the hybrid method and sweeps its PE
// count, measuring checkpoint traffic.
func RunFig11(p Params, peCounts []int) (*Fig11Result, error) {
	p = p.withDefaults()
	// Keep the machine unsaturated at 8 PEs.
	p.PECost = 50 * time.Microsecond
	p.Subjobs = 2
	if p.Run > 2*time.Second {
		p.Run = 2 * time.Second
	}
	if len(peCounts) == 0 {
		peCounts = Fig11PECounts
	}
	res := &Fig11Result{Window: p.Run}
	for _, n := range peCounts {
		pp := p
		pp.PEsPerSubjob = n
		tb, err := newTestbed(testbedConfig{
			params: pp,
			modes:  uniformModes(pp.Subjobs, 0, ha.ModeHybrid),
			hybrid: core.Options{},
		})
		if err != nil {
			return nil, err
		}
		if err := tb.pipe.Start(); err != nil {
			tb.close()
			return nil, err
		}
		time.Sleep(pp.Warmup)
		before := tb.cl.Stats()
		time.Sleep(pp.Run)
		delta := tb.cl.Stats().Sub(before)
		tb.close()
		res.Points = append(res.Points, Fig11Point{
			PEsPerSubjob:       n,
			CheckpointElements: delta.Elements[transport.KindCheckpoint],
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Fig11Result) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("Figure 11: hybrid checkpoint overhead vs PEs per machine (%.1fs window)", r.Window.Seconds()),
		Note:   "paper shape: overhead grows about linearly with the number of PEs",
		Header: []string{"pes/machine", "ckpt-elems", "per-pe"},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.PEsPerSubjob),
			fmt.Sprintf("%d", pt.CheckpointElements),
			fmt.Sprintf("%d", pt.CheckpointElements/int64(pt.PEsPerSubjob)),
		})
	}
	return t
}
