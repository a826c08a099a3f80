package main

import "sort"

// quartiles returns q1, the median and q3 of vals as Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), so that the
// spreads this harness prints are the spreads the driver computes. Fewer than
// two values give that value (or 0) three times.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// value is one reported metric: the median over the windows of a run (or a
// single measurement, for drive, wrap and run-level metrics), with the
// quartiles and raw window values it was taken from.
type value struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Windows []float64 `json:"windows,omitempty"`
}

func windowValue(vals []float64) value {
	q1, med, q3 := quartiles(vals)
	return value{Value: med, Q1: q1, Q3: q3, Windows: vals}
}
