package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDelayStatsBasics(t *testing.T) {
	var d DelayStats
	if d.Mean() != 0 || d.Count() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty stats not zero")
	}
	for _, v := range []time.Duration{10, 20, 30} {
		d.Add(v * time.Millisecond)
	}
	if d.Count() != 3 || d.Mean() != 20*time.Millisecond || d.max() != 30*time.Millisecond {
		t.Fatalf("count=%d mean=%v max=%v", d.Count(), d.Mean(), d.max())
	}
}

func TestDelayStatsPercentile(t *testing.T) {
	var d DelayStats
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if got := d.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := d.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
}

func TestDelayStatsMeanSince(t *testing.T) {
	var d DelayStats
	for _, v := range []time.Duration{100, 100} {
		d.Add(v * time.Millisecond)
	}
	warmup := d.Window()
	for _, v := range []time.Duration{10, 20, 30} {
		d.Add(v * time.Millisecond)
	}
	if got := d.MeanSince(warmup); got != 20*time.Millisecond {
		t.Fatalf("MeanSince(warmup) = %v", got)
	}
	if got := d.MeanSince(d.Window()); got != 0 {
		t.Fatalf("MeanSince with nothing after = %v", got)
	}
	var zero Window
	if got := d.MeanSince(zero); got != 52*time.Millisecond {
		t.Fatalf("MeanSince(zero) = %v", got)
	}
}

func TestPercentileIsMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var d DelayStats
		for _, v := range vals {
			d.Add(time.Duration(v) * time.Microsecond)
		}
		last := time.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 99, 100} {
			v := d.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return d.Percentile(100) == d.max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].Value != 1 || pts[0].Fraction != 1.0/3 {
		t.Fatalf("first point %+v", pts[0])
	}
	if pts[2].Value != 3 || pts[2].Fraction != 1 {
		t.Fatalf("last point %+v", pts[2])
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestFractionBelow(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := FractionBelow(vals, 3); got != 0.5 {
		t.Fatalf("got %f", got)
	}
	if got := FractionBelow(nil, 3); got != 0 {
		t.Fatalf("empty got %f", got)
	}
}

func TestRecoveryPhases(t *testing.T) {
	t0 := time.Unix(0, 0)
	r := Recovery{
		FailureAt:     t0,
		DetectedAt:    t0.Add(10 * time.Millisecond),
		ReadyAt:       t0.Add(15 * time.Millisecond),
		FirstOutputAt: t0.Add(18 * time.Millisecond),
	}
	if r.Detection() != 10*time.Millisecond || r.Deploy() != 5*time.Millisecond ||
		r.Reprocess() != 3*time.Millisecond || r.Total() != 18*time.Millisecond {
		t.Fatalf("phases %v %v %v %v", r.Detection(), r.Deploy(), r.Reprocess(), r.Total())
	}
}
