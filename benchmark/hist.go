package main

import (
	"math"
	"math/bits"
)

// histSubBits sets the resolution: every octave is split into 128 linear
// buckets, so a bucket is never wider than 1/128 (0.78 %) of its lower edge
// and a reported quantile is within 0.78 % of the sample of that rank.
const histSubBits = 7

const histBuckets = (64 - histSubBits) << histSubBits

// hist is a log-linear histogram of non-negative nanosecond values. It has
// no lock: one goroutine fills it and readers wait for that goroutine to
// stop. Unlike metrics.DelayStats it keeps every sample, so its quantiles do
// not depend on a random reservoir.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    int64
	max    int64
}

func histIndex(v int64) int {
	if v < 1<<histSubBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(v>>uint(shift))&(1<<histSubBits-1)
}

// histBucket returns the lowest value of bucket i and how many values it
// spans.
func histBucket(i int) (lo, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	shift := uint(i>>histSubBits - 1)
	return float64(int64(1<<histSubBits+i&(1<<histSubBits-1)) << shift), float64(int64(1) << shift)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q ≤ 1), or 0 when empty: the bucket
// holding the sample of rank q·n, interpolated by that rank's place among
// the bucket's samples, so the result is not quantized to bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := math.Max(q*float64(h.n), 0.5)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBucket(i)
			return math.Min(lo+width*(rank-seen)/float64(c), float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
