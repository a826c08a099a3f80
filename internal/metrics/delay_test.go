package metrics

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// refPercentile is the seed implementation's nearest-rank percentile over
// the full sample history, used as the exactness/accuracy reference.
func refPercentile(samples []time.Duration, p float64) time.Duration {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

func TestPercentileRejectsOutOfRange(t *testing.T) {
	var d DelayStats
	for i := 1; i <= 10; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	for _, p := range []float64{0, -1, -100, 100.001, 101, 1e9} {
		if got := d.Percentile(p); got != 0 {
			t.Fatalf("Percentile(%v) = %v, want 0 for out-of-range p", p, got)
		}
	}
}

func TestPercentileBoundaries(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	cases := []struct {
		name    string
		samples []time.Duration
		want    map[float64]time.Duration
	}{
		{
			name:    "single",
			samples: []time.Duration{ms(42)},
			want:    map[float64]time.Duration{0.1: ms(42), 50: ms(42), 99: ms(42), 100: ms(42)},
		},
		{
			name:    "pair",
			samples: []time.Duration{ms(20), ms(10)},
			want:    map[float64]time.Duration{0.1: ms(10), 50: ms(10), 99: ms(20), 100: ms(20)},
		},
		{
			name:    "odd",
			samples: []time.Duration{ms(30), ms(10), ms(50), ms(20), ms(40)},
			want:    map[float64]time.Duration{0.1: ms(10), 50: ms(30), 99: ms(50), 100: ms(50)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d DelayStats
			for _, v := range tc.samples {
				d.Add(v)
			}
			for p, want := range tc.want {
				if got := d.Percentile(p); got != want {
					t.Errorf("p%g = %v, want %v", p, got, want)
				}
				if ref := refPercentile(tc.samples, p); ref != want {
					t.Errorf("reference disagrees at p%g: %v vs want %v", p, ref, want)
				}
			}
		})
	}
}

// TestPercentileExactWhileUnsampled verifies that concurrent adds spread
// across shards still produce the exact nearest-rank percentile as long
// as no shard overflows its reservoir.
func TestPercentileExactWhileUnsampled(t *testing.T) {
	var d DelayStats
	const (
		writers   = 8
		perWriter = 500
	)
	all := make([]time.Duration, 0, writers*perWriter)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			local := make([]time.Duration, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				v := time.Duration(rng.Intn(1_000_000)) * time.Microsecond
				d.Add(v)
				local = append(local, v)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if d.sampled() {
		t.Fatal("reservoirs overflowed with only 4000 samples")
	}
	for _, p := range []float64{0.1, 10, 50, 90, 99, 100} {
		if got, want := d.Percentile(p), refPercentile(all, p); got != want {
			t.Fatalf("p%g = %v, want exact %v", p, got, want)
		}
	}
}

// TestSketchAccuracy bounds the reservoir estimate's quantile error
// against the exact nearest-rank percentile on 100k samples, where the
// sketch retains at most a few reservoirs' worth of values.
func TestSketchAccuracy(t *testing.T) {
	const n = 100_000
	var d DelayStats
	all := make([]time.Duration, 0, n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		// Uniform values: quantile error maps directly onto rank error.
		v := time.Duration(rng.Intn(n)) * time.Microsecond
		d.Add(v)
		all = append(all, v)
	}
	if !d.sampled() {
		t.Fatal("100k samples should overflow the reservoirs")
	}
	// Uniform reservoir sampling at k=4096 has rank standard error
	// sqrt(p(1-p)/k) <= 0.8 percentile points; 4 points is > 5 sigma.
	const tolerance = 4.0 / 100.0 * n * float64(time.Microsecond)
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		got := float64(d.Percentile(p))
		want := float64(refPercentile(all, p))
		if diff := got - want; diff < -tolerance || diff > tolerance {
			t.Errorf("p%g estimate %v vs exact %v exceeds tolerance", p, time.Duration(int64(got)), time.Duration(int64(want)))
		}
	}
	if got, want := d.Percentile(100), refPercentile(all, 100); got != want {
		t.Errorf("p100 must stay exact under sampling: %v vs %v", got, want)
	}
}

// TestDelayStatsConcurrentPolling hammers Add from parallel writers while
// a reader polls live statistics, then checks the exact counters. Run
// under -race this exercises the lock-free paths.
func TestDelayStatsConcurrentPolling(t *testing.T) {
	var d DelayStats
	const (
		writers   = 8
		perWriter = 20_000
		maxVal    = 100 * time.Millisecond
	)
	var wantSum int64
	var mu sync.Mutex
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m := d.Mean(); m < 0 || m > maxVal {
				t.Errorf("live Mean out of range: %v", m)
				return
			}
			p50, p99 := d.Percentile(50), d.Percentile(99)
			if p50 < 0 || p99 < p50 && d.Count() > 0 && !d.sampled() {
				t.Errorf("live percentiles inconsistent: p50=%v p99=%v", p50, p99)
				return
			}
			d.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var sum int64
			for i := 0; i < perWriter; i++ {
				v := time.Duration(rng.Int63n(int64(maxVal)))
				d.Add(v)
				sum += int64(v)
			}
			mu.Lock()
			wantSum += sum
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()

	if got := d.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
	if got, want := d.Mean(), time.Duration(wantSum/int64(writers*perWriter)); got != want {
		t.Fatalf("Mean = %v, want exact %v", got, want)
	}
	if m := d.max(); m <= 0 || m >= maxVal {
		t.Fatalf("Max = %v out of range", m)
	}
	if p50 := d.Percentile(50); p50 <= 0 || p50 >= maxVal {
		t.Fatalf("p50 = %v out of range", p50)
	}
}

func TestDelaySnapshotJSON(t *testing.T) {
	var d DelayStats
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	snap := d.Snapshot()
	if snap.Count != 100 || snap.MeanMS != 50.5 || snap.P50MS != 50 || snap.P99MS != 99 || snap.MaxMS != 100 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.Sampled {
		t.Fatal("100 samples must not be marked sampled")
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back DelaySnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != snap {
		t.Fatalf("JSON round trip: %+v != %+v", back, snap)
	}
}

func TestQuantilesSingleMerge(t *testing.T) {
	var d DelayStats
	for i := 1; i <= 1000; i++ {
		d.Add(time.Duration(i) * time.Microsecond)
	}
	qs := d.Quantiles(50, 95, 99, 100)
	for i, p := range []float64{50, 95, 99, 100} {
		if want := d.Percentile(p); qs[i] != want {
			t.Fatalf("Quantiles[%d] = %v, Percentile(%g) = %v", i, qs[i], p, want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	var d DelayStats
	d.Add(10 * time.Millisecond)
	r.Register("sink/delays", func() any { return d.Snapshot() })
	r.Register("static", func() any { return map[string]int{"x": 1} })
	if got := r.Names(); len(got) != 2 || got[0] != "sink/delays" || got[1] != "static" {
		t.Fatalf("names %v", got)
	}
	snap := r.Snapshot()
	if ds, ok := snap["sink/delays"].(DelaySnapshot); !ok || ds.Count != 1 {
		t.Fatalf("snapshot entry %+v", snap["sink/delays"])
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("registry JSON not valid: %v\n%s", err, b)
	}
	if len(decoded) != 2 {
		t.Fatalf("JSON keys %v", decoded)
	}
	r.Unregister("static")
	if got := r.Names(); len(got) != 1 {
		t.Fatalf("names after unregister %v", got)
	}
	// A zero-value registry must be usable too.
	var zero Registry
	zero.Register("a", func() any { return 1 })
	if len(zero.Snapshot()) != 1 {
		t.Fatal("zero-value registry broken")
	}
}
