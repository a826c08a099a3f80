package main

import (
	"fmt"
	"os"
	"strings"
)

// side is one side of a comparison: one result file, or several runs of the
// same commit given as a comma-separated list.
type side struct {
	reports []*report
}

func loadSide(arg string) (*side, error) {
	s := &side{}
	for _, path := range strings.Split(arg, ",") {
		r, err := loadReport(path)
		if err != nil {
			return nil, err
		}
		s.reports = append(s.reports, r)
	}
	return s, nil
}

// values returns what a metric's median and quartiles are taken over: the
// window values of a single run, or the medians of several runs. ok is
// false when a run has no valid result for the workload.
func (s *side) values(workload, metric string) (vals []float64, ok bool) {
	for _, r := range s.reports {
		var res *result
		for _, w := range r.Workloads {
			if w.Name == workload {
				res = w
			}
		}
		if res == nil || !res.Valid {
			return nil, false
		}
		v, found := res.Metrics[metric]
		if !found {
			return nil, false
		}
		if len(s.reports) == 1 && len(v.Windows) > 0 {
			return v.Windows, true
		}
		vals = append(vals, v.Value)
	}
	return vals, len(vals) > 0
}

// failureRate is elems_failed / elems_offered over every run of a workload.
func (s *side) failureRate(workload string) float64 {
	var failed, offered int64
	for _, r := range s.reports {
		for _, w := range r.Workloads {
			if w.Name == workload {
				failed += w.ElemsFailed
				offered += w.ElemsOffered
			}
		}
	}
	return ratio(float64(failed), float64(offered))
}

// verdict judges b against a for a lower-is-better metric. A spread (q3-q1
// over the median) wider than the bound on either side means the runs
// cannot resolve a change of the bound's size.
func verdict(a, b []float64, bound float64) string {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	switch {
	case bm > am*(1+bound):
		return "worse"
	case ratio(aq3-aq1, am) > bound || ratio(bq3-bq1, bm) > bound:
		return "unresolved"
	}
	return "within"
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians with their quartiles, the bound and the verdict. It returns 1 if
// any metric is worse or b fails more operations than a.
func compareFiles(argA, argB string) int {
	a, err := loadSide(argA)
	if err == nil {
		var b *side
		if b, err = loadSide(argB); err == nil {
			return compareSides(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func compareSides(a, b *side) int {
	ha, hb := a.reports[0], b.reports[0]
	if ha.Host != hb.Host {
		fmt.Printf("warning: hosts differ: %+v vs %+v\n", ha.Host, hb.Host)
	}
	if ha.WindowS != hb.WindowS || ha.Windows != hb.Windows || ha.Traced != hb.Traced {
		fmt.Printf("warning: runs differ: %d x %.0f s traced=%v vs %d x %.0f s traced=%v\n",
			ha.Windows, ha.WindowS, ha.Traced, hb.Windows, hb.WindowS, hb.Traced)
	}
	fmt.Printf("a: commit %s, %d run(s); b: commit %s, %d run(s)\n", ha.Commit, len(a.reports), hb.Commit, len(b.reports))
	code := 0
	for _, w := range workloads() {
		fmt.Printf("\n%s\n  %-22s %12s %12s %12s   %12s %12s %12s  %5s  %s\n", w.name,
			"metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "bound", "verdict")
		for _, m := range metricTable() {
			if !m.e2e {
				continue
			}
			va, okA := a.values(w.name, m.name)
			vb, okB := b.values(w.name, m.name)
			if !okA || !okB {
				fmt.Printf("  %-22s missing or invalid on one side\n", m.name)
				code = 1
				continue
			}
			aq1, am, aq3 := quartiles(va)
			bq1, bm, bq3 := quartiles(vb)
			v := verdict(va, vb, m.bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("  %-22s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f  %5.2f  %s\n",
				m.name, aq1, am, aq3, bq1, bm, bq3, m.bound, v)
		}
		if fa, fb := a.failureRate(w.name), b.failureRate(w.name); fb > fa {
			fmt.Printf("  elems_failed/elems_offered rose from %g to %g\n", fa, fb)
			code = 1
		}
	}
	return code
}
