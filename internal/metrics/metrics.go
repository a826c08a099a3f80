// Package metrics collects the measurements the paper's evaluation
// reports — per-element end-to-end delay statistics, empirical CDFs, and
// recovery-time decompositions — and aggregates them, with every other
// component's counters, into a live-pollable Registry. DelayStats (the
// hot, per-element path) lives in delay.go; the Registry in registry.go.
package metrics

import (
	"sort"
	"time"
)

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF computes the empirical CDF of values, one point per sample.
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, Fraction: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// FractionBelow returns the fraction of values strictly below x.
func FractionBelow(values []float64, x float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v < x {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// Recovery decomposes one failure recovery the way Figures 7 and 8 do:
// detection, redeployment (passive standby) or resume (hybrid), and
// retransmission/reprocessing until the first new output.
type Recovery struct {
	// FailureAt is when the transient failure began (ground truth).
	FailureAt time.Time
	// DetectedAt is when the detector declared it.
	DetectedAt time.Time
	// ReadyAt is when the recovery copy was running (deployed and connected
	// for PS; resumed for hybrid).
	ReadyAt time.Time
	// FirstOutputAt is when the first post-recovery new output reached the
	// sink.
	FirstOutputAt time.Time
}

// Detection returns the detection phase duration.
func (r Recovery) Detection() time.Duration { return r.DetectedAt.Sub(r.FailureAt) }

// Deploy returns the redeployment/resume phase duration.
func (r Recovery) Deploy() time.Duration { return r.ReadyAt.Sub(r.DetectedAt) }

// Reprocess returns the retransmission/reprocessing phase duration.
func (r Recovery) Reprocess() time.Duration { return r.FirstOutputAt.Sub(r.ReadyAt) }
