package experiment

import (
	"fmt"
	"time"

	"streamha/internal/core"
	"streamha/internal/ha"
)

// AblationVariant names one hybrid design choice being turned off.
type AblationVariant struct {
	Label   string
	Options core.Options
}

// defaultAblationVariants cover the optimizations of Section IV-B.
func defaultAblationVariants() []AblationVariant {
	return []AblationVariant{
		{Label: "full-hybrid", Options: core.Options{}},
		{Label: "no-predeploy", Options: core.Options{NoPreDeploy: true}},
		{Label: "no-early-conn", Options: core.Options{NoEarlyConnection: true}},
		{Label: "no-read-state", Options: core.Options{NoReadState: true}},
		{Label: "3-miss-trigger", Options: core.Options{MissThreshold: 3}},
		{Label: "disk-store", Options: core.Options{NoPreDeploy: true, DiskStore: true}},
	}
}

// AblationRow is one variant's measurements.
type AblationRow struct {
	Label string
	// Recovery phases from a single hard stall.
	Phases RecoveryPhases
	// MeanDelay is the average E2E delay under recurring transient
	// failures (40% of the time), which exposes the read-state benefit.
	MeanDelay time.Duration
}

// AblationResult quantifies the gains of each hybrid optimization
// (Section IV-B: pre-deployment ≈ 75% less redeploy time, early
// connection ≈ 50% less retransmission time, first-miss trigger ≈ 1/3 the
// detection time, in-memory refresh vs disk).
type AblationResult struct {
	Rows []AblationRow
}

// RunAblation measures each variant.
func RunAblation(p Params, variants []AblationVariant, repeats int) (*AblationResult, error) {
	p = p.withDefaults()
	if len(variants) == 0 {
		variants = defaultAblationVariants()
	}
	if repeats <= 0 {
		repeats = 3
	}
	res := &AblationResult{}
	const protected = 1
	for _, v := range variants {
		opts := v.Options
		opts.HeartbeatInterval = p.HeartbeatInterval
		opts.CheckpointInterval = p.CheckpointInterval

		phases, err := averageRecoveries(p, ha.ModeHybrid, opts, ha.PSOptions{}, 800*time.Millisecond, repeats)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.Label, err)
		}

		// Sustained-failure delay run.
		tb, err := newTestbed(testbedConfig{
			params: p,
			modes:  uniformModes(p.Subjobs, protected, ha.ModeHybrid),
			hybrid: opts,
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
		inj := startSpikes(tb, priM, 0.4, p.Seed)
		warmup := tb.pipe.Sink().Delays().Window()
		time.Sleep(p.Run)
		inj.Stop()
		mean := tb.pipe.Sink().Delays().MeanSince(warmup)
		tb.close()

		res.Rows = append(res.Rows, AblationRow{Label: v.Label, Phases: phases, MeanDelay: mean})
	}
	return res, nil
}

// Table renders the result.
func (r *AblationResult) Table() Table {
	t := Table{
		Title:  "Ablation: gains of the hybrid optimizations (Section IV-B)",
		Note:   "paper: pre-deploy cuts redeploy ~75%; early connection cuts retrans ~50%; first-miss trigger cuts detection to 1/3",
		Header: []string{"variant", "detect(ms)", "deploy/resume(ms)", "retrans(ms)", "total(ms)", "mean-delay(ms)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Label,
			ms(row.Phases.Detection),
			ms(row.Phases.Deploy),
			ms(row.Phases.Reprocess),
			ms(row.Phases.Total()),
			ms(row.MeanDelay),
		})
	}
	return t
}
