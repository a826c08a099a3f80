package experiment

import (
	"fmt"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/core"
	"streamha/internal/failure"
	"streamha/internal/ha"
	"streamha/internal/transport"
)

// ApproxModePoint is one mode's steady-state measurement in the
// bounded-error comparison grid.
type ApproxModePoint struct {
	Label string
	Mode  ha.Mode
	// CheckpointElements is the checkpoint traffic (element units) over
	// the window — approx should undercut hybrid and PS here, since its
	// partial frames carry only the hot slots.
	CheckpointElements int64
	// Sweeps and CkptBytes are the protected subjob's checkpoint count and
	// total encoded bytes over the window; BytesPerSweep is their ratio.
	Sweeps        int
	CkptBytes     int64
	BytesPerSweep float64
	// PrimaryCPU is the CPU work executed on the protected subjob's
	// primary machine over the window (element processing plus the modeled
	// checkpoint cost), the steady-state CPU proxy.
	PrimaryCPU time.Duration
}

// ApproxResult reproduces the bounded-error standby evaluation: the
// steady-state five-mode grid plus one injected failover under the approx
// policy, with the measured divergence reported against the budget.
type ApproxResult struct {
	Window time.Duration
	Budget core.ErrorBudget
	Points []ApproxModePoint
	// Divergence is the approx policy's accounting after the injected
	// failover; Switchovers is the lifecycle's count for the same run.
	Divergence  core.DivergenceStats
	Switchovers int
	// SinkGaps and SinkDuplicateIDs validate the bounded-loss contract on
	// the failover run: the sink stream stays gap-free (skip-replay jumps
	// the dedup floor, it never tears the sequence) and no element is
	// delivered twice.
	SinkGaps         int
	SinkDuplicateIDs int
}

// approxHotSlots concentrates PE writes on the first slots so partial
// frames have a hot/cold split to exploit; approxBudget is generous so the
// injected failover stays within budget (the point of the figure is to
// measure the divergence, not to exercise the fallback).
const approxHotSlots = 8

var approxBudget = core.ErrorBudget{MaxLostElements: 100000}

// RunApprox measures the five modes side by side — checkpoint traffic,
// checkpoint bytes per sweep, primary CPU — and then injects one transient
// failure under the approx policy, reading back the divergence it admitted.
func RunApprox(p Params) (*ApproxResult, error) {
	p = p.withDefaults()
	// Two subjobs and light PEs keep the grid fast; the checkpoint cost
	// model (DefaultCosts) charges the primary per shipped unit, so the
	// CPU column reflects what each mode's checkpoints cost.
	p.Subjobs = 2
	p.PECost = 50 * time.Microsecond
	p.Rate = 2000
	if p.Run > 2*time.Second {
		p.Run = 2 * time.Second
	}

	res := &ApproxResult{Window: p.Run, Budget: approxBudget}
	grid := []struct {
		label string
		mode  ha.Mode
	}{
		{"none", ha.ModeNone},
		{"as", ha.ModeActive},
		{"ps", ha.ModePassive},
		{"hybrid", ha.ModeHybrid},
		{fmt.Sprintf("approx(b=%d)", approxBudget.MaxLostElements), ha.ModeApprox},
	}
	for _, cfg := range grid {
		tb, err := newTestbed(testbedConfig{
			params:   p,
			modes:    allModes(p.Subjobs, cfg.mode),
			approx:   approxBudget,
			hotSlots: approxHotSlots,
		})
		if err != nil {
			return nil, err
		}
		if err := tb.pipe.Start(); err != nil {
			tb.close()
			return nil, err
		}
		time.Sleep(p.Warmup)
		priM := tb.cl.Machine("p0")
		before := tb.cl.Stats()
		cpu0 := priM.CPU().WorkDone()
		cm0 := managerStats(tb.pipe.Group(0).HA.Checkpoint())
		time.Sleep(p.Run)
		delta := tb.cl.Stats().Sub(before)
		cpu := priM.CPU().WorkDone() - cpu0
		cm1 := managerStats(tb.pipe.Group(0).HA.Checkpoint())
		tb.close()

		pt := ApproxModePoint{
			Label:              cfg.label,
			Mode:               cfg.mode,
			CheckpointElements: delta.Elements[transport.KindCheckpoint],
			Sweeps:             cm1.Taken - cm0.Taken,
			CkptBytes: (cm1.BytesFull + cm1.BytesDelta + cm1.BytesPartial) -
				(cm0.BytesFull + cm0.BytesDelta + cm0.BytesPartial),
			PrimaryCPU: cpu,
		}
		if pt.Sweeps > 0 {
			pt.BytesPerSweep = float64(pt.CkptBytes) / float64(pt.Sweeps)
		}
		res.Points = append(res.Points, pt)
	}

	// Failover probe: protect subjob 0 with approx, stall its primary for
	// one spike, and read back the divergence the budgeted promotion
	// admitted.
	fp := p
	fp.Run = 0 // unused below
	tb, err := newTestbed(testbedConfig{
		params:   fp,
		modes:    uniformModes(fp.Subjobs, 0, ha.ModeApprox),
		approx:   approxBudget,
		hotSlots: approxHotSlots,
		trackIDs: true,
	})
	if err != nil {
		return nil, err
	}
	if err := tb.pipe.Start(); err != nil {
		tb.close()
		return nil, err
	}
	time.Sleep(fp.Warmup)
	failure.InjectOnce(tb.cl.Machine("p0").CPU(), tb.cl.Clock(), 1.0, fp.SpikeDuration, 0)
	time.Sleep(600 * time.Millisecond) // rollback + drain

	g := tb.pipe.Group(0)
	if dr, ok := g.HA.Policy().(*core.ApproxPolicy); ok {
		res.Divergence = dr.Divergence()
	}
	res.Switchovers = g.HA.Stats().Switchovers
	sk := tb.pipe.Sink().Stats()
	res.SinkGaps = sk.InputGaps
	for _, n := range tb.pipe.Sink().IDCounts() {
		if n > 1 {
			res.SinkDuplicateIDs++
		}
	}
	tb.close()
	return res, nil
}

// managerStats resolves a possibly-nil checkpoint manager (NONE and AS
// subjobs have none) to its stats.
func managerStats(cm *checkpoint.Core) checkpoint.ManagerStats {
	if cm == nil {
		return checkpoint.ManagerStats{}
	}
	return cm.Stats()
}

// Table renders the result.
func (r *ApproxResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Approx: bounded-error standby vs the four exact modes (%.1fs window)", r.Window.Seconds()),
		Note: "expected shape: approx ships fewer checkpoint bytes/sweep than PS and hybrid and less checkpoint traffic;\n" +
			"the injected failover's measured loss stays within the budget, with zero sink gaps and duplicates",
		Header: []string{"config", "ckpt-elems", "sweeps", "ckpt-bytes", "bytes/sweep", "primary-cpu(ms)"},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			pt.Label,
			fmt.Sprintf("%d", pt.CheckpointElements),
			fmt.Sprintf("%d", pt.Sweeps),
			fmt.Sprintf("%d", pt.CkptBytes),
			fmt.Sprintf("%.0f", pt.BytesPerSweep),
			ms(pt.PrimaryCPU),
		})
	}
	d := r.Divergence
	within := "no"
	if d.WithinBudget {
		within = "yes"
	}
	t.Rows = append(t.Rows,
		[]string{"-- failover --", "", "", "", "", ""},
		[]string{"switchovers", fmt.Sprintf("%d", r.Switchovers), "", "", "", ""},
		[]string{"budgeted-skips", fmt.Sprintf("%d", d.BudgetedSkips), "", "", "", ""},
		[]string{"exact-replays", fmt.Sprintf("%d", d.ExactReplays), "", "", "", ""},
		[]string{"lost-elements", fmt.Sprintf("%d", d.LostElements), "", "", "", ""},
		[]string{"budget", fmt.Sprintf("%d", d.BudgetMaxLost), "", "", "", ""},
		[]string{"stale-cold-bytes", fmt.Sprintf("%d", d.StaleColdBytes), "", "", "", ""},
		[]string{"within-budget", within, "", "", "", ""},
		[]string{"sink-gaps", fmt.Sprintf("%d", r.SinkGaps), "", "", "", ""},
		[]string{"sink-dup-ids", fmt.Sprintf("%d", r.SinkDuplicateIDs), "", "", "", ""},
	)
	return t
}
