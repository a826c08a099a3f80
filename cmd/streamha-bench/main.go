// Command streamha-bench regenerates the paper's tables and figures as
// text tables.
//
// Usage:
//
//	streamha-bench -fig all            # every figure (several minutes)
//	streamha-bench -fig 4              # one figure
//	streamha-bench -fig 7 -quick      # reduced sweep for a fast look
//
// Figures: 1, 2 (covers 3), 4, 5, 6, 7, 8, 9 (covers 10), 11, 12 (covers
// 13), plus "sweeping" (Section III), "ablation" (Section IV-B),
// "lifecycle" (control-plane transition logs per standby policy under a
// scripted stall + fail-stop) and "scale" (keyed-parallelism throughput
// at 1/2/4/8 partition instances plus a live 2->3 rescale with
// exactly-once audit; -smoke sweeps {1,4} with short runs) and
// "placement" (static spare placement vs the consensus-backed scheduler
// under a multi-failure trace with a placement-log leader kill; -smoke
// shortens the trace to one round) and "approx" (the bounded-error
// standby: five-mode steady-state grid plus an injected failover with
// divergence-vs-budget accounting).
//
// -json <path> additionally writes every rendered table as machine-
// readable JSON (figure -> metric -> value), for CI artifacts.
// -cpuprofile <path> writes a CPU profile of the run for go tool pprof.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"streamha/internal/experiment"
	"streamha/internal/failure"
	"streamha/internal/metrics"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1,2,4,5,6,7,8,9,11,12,sweeping,ablation,lifecycle,scale,placement,approx or all")
	quick := flag.Bool("quick", false, "reduced sweeps and repeats for a fast look")
	smoke := flag.Bool("smoke", false, "health-check subset for CI (affects -fig scale, placement, approx)")
	jsonPath := flag.String("json", "", "also write the results as JSON (figure -> metric -> value) to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	err := metrics.WithCPUProfile(*cpuProfile, func() error { return run(*fig, *quick, *smoke, *jsonPath) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamha-bench: %v\n", err)
		os.Exit(1)
	}
}

// jsonTable is one rendered table in the -json output: the raw table plus
// a metrics map keyed by each row's first cell.
type jsonTable struct {
	Title          string                       `json:"title"`
	Note           string                       `json:"note,omitempty"`
	ElapsedSeconds float64                      `json:"elapsed_seconds"`
	Metrics        map[string]map[string]string `json:"metrics"`
}

// tableMetrics flattens a table into metric -> column -> value. Row labels
// are made unique by suffixing the second column (e.g. a rate) and, as a
// last resort, the row index.
func tableMetrics(t experiment.Table) map[string]map[string]string {
	out := make(map[string]map[string]string, len(t.Rows))
	for i, row := range t.Rows {
		if len(row) == 0 {
			continue
		}
		key := row[0]
		if _, dup := out[key]; dup && len(row) > 1 {
			key = row[0] + "@" + row[1]
		}
		if _, dup := out[key]; dup {
			key = fmt.Sprintf("%s#%d", row[0], i)
		}
		cols := make(map[string]string, len(row))
		for j := 1; j < len(row) && j < len(t.Header); j++ {
			cols[t.Header[j]] = row[j]
		}
		out[key] = cols
	}
	return out
}

func run(fig string, quick, smoke bool, jsonPath string) error {
	params := experiment.DefaultParams()
	repeats := 3
	if quick {
		params.Run = 1500 * time.Millisecond
		repeats = 1
	}

	// want remembers the figure name it matched, so show files the table
	// under it in the JSON output without threading names through every
	// call site.
	cur := ""
	want := func(name string) bool {
		if fig == "all" || fig == name {
			cur = name
			return true
		}
		return false
	}
	ran := false
	collected := make(map[string]jsonTable)
	showNamed := func(name string, t experiment.Table, elapsed time.Duration) {
		ran = true
		fmt.Println(t.Render())
		fmt.Printf("(took %.1fs)\n\n", elapsed.Seconds())
		collected[name] = jsonTable{
			Title:          t.Title,
			Note:           t.Note,
			ElapsedSeconds: elapsed.Seconds(),
			Metrics:        tableMetrics(t),
		}
	}
	show := func(t experiment.Table, elapsed time.Duration) { showNamed(cur, t, elapsed) }

	if want("1") {
		start := time.Now()
		r, err := experiment.RunFig01(params)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("2") || want("3") {
		start := time.Now()
		r := experiment.RunFig02And03(failure.DefaultTraceConfig())
		show(r.Table(), time.Since(start))
	}
	if want("4") {
		start := time.Now()
		fractions := experiment.Fig04Fractions
		if quick {
			fractions = []float64{0.3, 0.5, 0.8}
		}
		r, err := experiment.RunFig04(params, nil, fractions)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("5") {
		start := time.Now()
		fractions := experiment.Fig05Fractions
		if quick {
			fractions = []float64{0.1, 0.2, 0.3}
		}
		r, err := experiment.RunFig05(params, fractions)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("6") {
		start := time.Now()
		rates := experiment.Fig06Rates
		if quick {
			rates = []float64{4000, 10000}
		}
		r, err := experiment.RunFig06(params, nil, rates)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("7") {
		start := time.Now()
		intervals := experiment.Fig07Intervals
		if quick {
			intervals = intervals[:3]
		}
		r, err := experiment.RunFig07(params, intervals, repeats)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("8") {
		start := time.Now()
		intervals := experiment.Fig08Intervals
		if quick {
			intervals = intervals[:3]
		}
		r, err := experiment.RunFig08(params, intervals, repeats)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("9") || want("10") {
		start := time.Now()
		rates := experiment.Fig09Rates
		outages := experiment.Fig09Outages
		if quick {
			rates = []float64{100, 700}
			outages = outages[:1]
		}
		r, err := experiment.RunFig09And10(params, rates, outages, repeats)
		if err != nil {
			return err
		}
		show(r.Fig09Table(), time.Since(start))
		showNamed("10", r.Fig10Table(), 0)
	}
	if want("11") {
		start := time.Now()
		counts := experiment.Fig11PECounts
		if quick {
			counts = []int{1, 4, 8}
		}
		r, err := experiment.RunFig11(params, counts)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("12") || want("13") {
		start := time.Now()
		loads := experiment.Fig12Loads
		spikes := 30
		if quick {
			loads = []float64{0.6, 0.8, 0.95}
			spikes = 8
		}
		r, err := experiment.RunFig12And13(params, loads, spikes)
		if err != nil {
			return err
		}
		show(r.Fig12Table(), time.Since(start))
		showNamed("13", r.Fig13Table(), 0)
	}
	if want("sweeping") {
		start := time.Now()
		r, err := experiment.RunSweeping(params)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}
	if want("ablation") {
		start := time.Now()
		r, err := experiment.RunAblation(params, nil, repeats)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}

	if want("lifecycle") {
		start := time.Now()
		r, err := experiment.RunLifecycle(params)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}

	if want("scale") {
		start := time.Now()
		r, err := experiment.RunScale(smoke || quick)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}

	if want("placement") {
		start := time.Now()
		r, err := experiment.RunPlacement(smoke || quick)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}

	if want("approx") {
		start := time.Now()
		ap := params
		if smoke {
			ap.Run = 1 * time.Second
			ap.Warmup = 300 * time.Millisecond
		}
		r, err := experiment.RunApprox(ap)
		if err != nil {
			return err
		}
		show(r.Table(), time.Since(start))
	}

	if !ran {
		return fmt.Errorf("unknown figure %q (try: %s)", fig,
			strings.Join([]string{"1", "2", "4", "5", "6", "7", "8", "9", "11", "12", "sweeping", "ablation", "lifecycle", "scale", "placement", "approx", "all"}, ", "))
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
