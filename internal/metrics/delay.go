package metrics

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// DelayStats is striped across shards so concurrent Add calls from the
// data plane do not contend on one lock, and each shard keeps a
// fixed-size reservoir sample instead of the full history, so quantile
// queries cost O(reservoir) regardless of how many samples were recorded.
const (
	// maxShards bounds the stripe width (and the zero-value footprint).
	maxShards = 32
	// reservoirCap is the per-shard reservoir size. With uniform
	// (Algorithm R) sampling the standard error of a mid-range quantile
	// estimate is sqrt(p(1-p)/k) ≈ 0.8 percentile points at k=4096.
	reservoirCap = 4096
)

// numShards is the stripe width used at runtime: GOMAXPROCS at package
// init, rounded up to a power of two and clamped to [8, maxShards]. The
// floor keeps Add scalable when tests raise GOMAXPROCS after init.
var numShards = func() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > maxShards {
		n = maxShards
	}
	return 1 << bits.Len(uint(n-1))
}()

// reservoir is a fixed block of sample slots, written and read with
// atomics so live polling never blocks the writers.
type reservoir [reservoirCap]atomic.Int64

// delayShard is one stripe: exact count/sum/max counters plus a uniform
// reservoir of sample values. Padded to two cache lines so neighboring
// shards do not false-share.
type delayShard struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	res   atomic.Pointer[reservoir]
	_     [128 - 4*8]byte
}

// mix64 is the splitmix64 finalizer: a bijective bit mixer whose output on
// a counter input passes as uniform. Feeding it (goroutine stack address,
// sample index) makes a counter-based RNG with zero shared state, so the
// reservoir draw in Add costs no atomics.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// DelayStats accumulates per-element delay samples, safe for concurrent
// use. Add is lock-free: counters are striped per shard and each shard
// retains a fixed-size uniform reservoir (Algorithm R) of sample values,
// so memory stays constant no matter how many samples are recorded and a
// dashboard can poll Mean/Percentile live without perturbing the
// pipeline it measures.
//
// Readers are weakly consistent with concurrent writers: a poll may
// observe a sample's count before its value, so live Mean/Percentile
// results can lag by the handful of samples in flight. Once writers
// quiesce, all read methods are exact (and Percentile matches the seed's
// nearest-rank over the full history whenever no shard has overflowed
// its reservoir).
//
// The zero value is ready to use.
type DelayStats struct {
	shards [maxShards]delayShard
}

// Add records one delay sample.
//
// The shard is picked by hashing the address of a stack local: goroutine
// stacks live in distinct allocations, so distinct goroutines land on
// distinct shards with high probability.
func (d *DelayStats) Add(v time.Duration) {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	s := &d.shards[int((p>>11)*0x9E3779B97F4A7C15>>32)&(numShards-1)]
	n := s.count.Add(1)
	s.sum.Add(int64(v))
	for {
		cur := s.max.Load()
		if int64(v) <= cur {
			break
		}
		if s.max.CompareAndSwap(cur, int64(v)) {
			break
		}
	}
	res := s.res.Load()
	if res == nil {
		fresh := new(reservoir)
		if s.res.CompareAndSwap(nil, fresh) {
			res = fresh
		} else {
			res = s.res.Load()
		}
	}
	if n <= reservoirCap {
		res[n-1].Store(int64(v))
		return
	}
	// Algorithm R: the i-th sample replaces a random slot with
	// probability reservoirCap/i, keeping the reservoir uniform. The draw
	// hashes (stack address, sample index) — no shared RNG state — and
	// maps into [0, n) by multiply-high instead of modulo.
	r := mix64(uint64(p) + uint64(n)*0x9E3779B97F4A7C15)
	if j, _ := bits.Mul64(r, uint64(n)); j < reservoirCap {
		res[j].Store(int64(v))
	}
}

// Count returns the number of samples recorded.
func (d *DelayStats) Count() int {
	var n int64
	for i := 0; i < numShards; i++ {
		n += d.shards[i].count.Load()
	}
	return int(n)
}

// Mean returns the mean delay, or zero with no samples.
func (d *DelayStats) Mean() time.Duration {
	var n, sum int64
	for i := 0; i < numShards; i++ {
		n += d.shards[i].count.Load()
		sum += d.shards[i].sum.Load()
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / n)
}

// max returns the largest sample. Max is tracked exactly, outside the
// reservoir, so it never degrades under sampling.
func (d *DelayStats) max() time.Duration {
	var m int64
	for i := 0; i < numShards; i++ {
		if v := d.shards[i].max.Load(); v > m {
			m = v
		}
	}
	return time.Duration(m)
}

// Window marks a position in the sample stream, used to exclude warm-up
// from mean calculations.
type Window struct {
	count int64
	sum   int64
}

// Window captures the current count/sum position. Pass it to MeanSince
// later to average only the samples recorded after this point.
func (d *DelayStats) Window() Window {
	var w Window
	for i := 0; i < numShards; i++ {
		w.count += d.shards[i].count.Load()
		w.sum += d.shards[i].sum.Load()
	}
	return w
}

// MeanSince returns the mean over samples recorded after w was captured,
// or zero if none were.
func (d *DelayStats) MeanSince(w Window) time.Duration {
	cur := d.Window()
	n := cur.count - w.count
	if n <= 0 {
		return 0
	}
	return time.Duration((cur.sum - w.sum) / n)
}

// weighted is one merged sketch sample: a value and the number of
// recorded samples it stands for (shard count / reservoir size).
type weighted struct {
	v int64
	w float64
}

// merged collects every shard's reservoir into one weighted sample set.
// A shard that recorded more samples than its reservoir holds contributes
// each retained value with proportionally higher weight.
func (d *DelayStats) merged() (samples []weighted, total float64) {
	for i := 0; i < numShards; i++ {
		s := &d.shards[i]
		c := s.count.Load()
		if c == 0 {
			continue
		}
		res := s.res.Load()
		if res == nil {
			continue
		}
		k := c
		if k > reservoirCap {
			k = reservoirCap
		}
		w := float64(c) / float64(k)
		for j := int64(0); j < k; j++ {
			samples = append(samples, weighted{v: res[j].Load(), w: w})
		}
		total += float64(c)
	}
	return samples, total
}

// Percentile returns the p-th percentile by the nearest-rank convention:
// the smallest recorded value whose rank r satisfies r >= round(p/100*n)
// (with the rank clamped to [1, n]). p outside (0, 100] returns 0.
// Percentile(100) always returns Max exactly; other quantiles are
// computed from the merged reservoirs, which is exact until a shard
// overflows reservoirCap and a tight estimate afterwards. Cost is
// O(reservoir log reservoir), independent of the total sample count.
func (d *DelayStats) Percentile(p float64) time.Duration {
	if p <= 0 || p > 100 {
		return 0
	}
	if p == 100 {
		return d.max()
	}
	q := d.quantiles(p)
	return q[0]
}

func (d *DelayStats) quantiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	samples, total := d.merged()
	if len(samples) == 0 {
		for i, p := range ps {
			if p == 100 {
				out[i] = d.max()
			}
		}
		return out
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].v < samples[j].v })
	for i, p := range ps {
		switch {
		case p <= 0 || p > 100:
			out[i] = 0
		case p == 100:
			out[i] = d.max()
		default:
			rank := math.Floor(p/100*total + 0.5)
			if rank < 1 {
				rank = 1
			}
			if rank > total {
				rank = total
			}
			cum := 0.0
			v := samples[len(samples)-1].v
			for _, s := range samples {
				cum += s.w
				if cum >= rank {
					v = s.v
					break
				}
			}
			out[i] = time.Duration(v)
		}
	}
	return out
}

// sampled reports whether any shard has recorded more samples than its
// reservoir retains, i.e. whether quantiles are estimates rather than
// exact.
func (d *DelayStats) sampled() bool {
	for i := 0; i < numShards; i++ {
		if d.shards[i].count.Load() > reservoirCap {
			return true
		}
	}
	return false
}

// DelaySnapshot is a JSON-marshalable point-in-time view of a DelayStats,
// exported through the metrics Registry.
type DelaySnapshot struct {
	Count   int64   `json:"count"`
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	Sampled bool    `json:"sampled"`
}

// Snapshot captures count, mean, max and the 50/95/99th percentiles in
// one pass over the reservoirs.
func (d *DelayStats) Snapshot() DelaySnapshot {
	q := d.quantiles(50, 95, 99)
	ms := func(v time.Duration) float64 { return float64(v) / 1e6 }
	return DelaySnapshot{
		Count:   int64(d.Count()),
		MeanMS:  ms(d.Mean()),
		MaxMS:   ms(d.max()),
		P50MS:   ms(q[0]),
		P95MS:   ms(q[1]),
		P99MS:   ms(q[2]),
		Sampled: d.sampled(),
	}
}
