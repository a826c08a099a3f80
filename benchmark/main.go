// Command benchmark is the repository's benchmark: four workloads run
// through the real chain (ha, cluster, queue, transport, subjob, pe,
// checkpoint, core, detect, machine), measured end to end and per layer
// from outside. README.md in this directory says what is measured and why.
//
//	go run . -workload all -seed 1 -out result.json     untraced pass
//	go run . -workload all -seed 1 -trace trace.json    traced pass
//	go run . -compare a.json b.json
//	go run . -list
//
// The driver of BENCHMARK.json calls it once per workload with
// -workload <name> -seed <n> -seconds <s> -trace <0|1>; the last line of
// standard output is then the run's result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is the measured span of one run; BENCHMARK.json's
// run_seconds must say the same.
const defaultSeconds = 22

// maxAttempts bounds how often a workload is run until an attempt is valid.
// In a noisy phase of this shared host an attempt now and then has more
// disturbed windows than the median absorbs (one in forty ckpt-mixed runs
// did); three attempts of 29 s stay inside the driver's 180 s.
const maxAttempts = 3

// report is the file -out writes: enough about the host and the run to
// judge whether two files are comparable before comparing them.
type report struct {
	Schema    int       `json:"schema"`
	Host      host      `json:"host"`
	Commit    string    `json:"commit"`
	Seed      int64     `json:"seed"`
	WindowS   float64   `json:"window_s"`
	Windows   int       `json:"windows"`
	Traced    bool      `json:"traced"`
	Started   string    `json:"started"`
	Workloads []*result `json:"workloads"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
}

func fingerprint() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "workload seed: fixes the stall offset of stall-hybrid")
		seconds      = flag.Int("seconds", defaultSeconds, "measured seconds per workload, in whole 2 s windows")
		trace        = flag.String("trace", "0", "0: untraced pass; 1: traced pass; a path: traced pass, spans written there")
		out          = flag.String("out", "", "write the result file here")
		commit       = flag.String("commit", "unknown", "commit the result file records")
		list         = flag.Bool("list", false, "print every workload and metric name and exit")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	switch {
	case *list:
		printList()
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	default:
		os.Exit(runWorkloads(*workloadFlag, *seed, *seconds, *trace, *out, *commit))
	}
}

func printList() {
	for _, w := range workloads() {
		fmt.Printf("workload %s %s\n", w.name, w.why)
	}
	for _, m := range metricTable() {
		kind := "per_layer"
		if m.e2e {
			kind = "end_to_end"
		}
		fmt.Printf("%s %s %s %s\n", kind, m.name, m.unit, m.better)
	}
}

func runWorkloads(name string, seed int64, seconds int, trace, out, commit string) int {
	ws := workloads()
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ws = []*workload{w}
	}
	traced := trace != "" && trace != "0"
	windows := seconds / int(defaultWindow.Seconds())
	opt := runOptions{seed: seed, windows: windows, window: defaultWindow, ready: defaultReady, setups: 3, rateScale: 1, drive: defaultDrive}
	if traced {
		// The drives take about two seconds; they come out of the span so
		// that a traced run lasts as long as an untraced one.
		opt.traced, opt.drives, opt.setups = true, true, 1
		opt.windows = windows - 2
	}
	if opt.windows < 1 {
		fmt.Fprintf(os.Stderr, "-seconds %d leaves no window\n", seconds)
		return 2
	}
	rep := report{Schema: 1, Host: fingerprint(), Commit: commit, Seed: seed, WindowS: defaultWindow.Seconds(),
		Windows: opt.windows, Traced: traced, Started: time.Now().UTC().Format(time.RFC3339)}
	var spans []span
	code := 0
	for _, w := range ws {
		var res *result
		for attempt := 1; ; attempt++ {
			res = runWorkload(w, opt)
			res.Attempts = attempt
			if res.Valid || res.wrong || attempt == maxAttempts {
				break
			}
			fmt.Printf("\nworkload %s: attempt %d is invalid (%s); running it again\n", w.name, attempt, res.Reason)
		}
		rep.Workloads = append(rep.Workloads, res)
		spans = append(spans, res.spans...)
		printResult(res)
		if !res.Valid {
			code = 1
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "write result:", err)
			code = 1
		}
	}
	if traced && trace != "1" {
		if err := writeSpans(trace, spans); err != nil {
			fmt.Fprintln(os.Stderr, "write trace:", err)
			code = 1
		}
	}
	if len(ws) == 1 {
		printDriverLine(rep.Workloads[0], traced)
	}
	return code
}

// printResult prints every metric of one run by name, with its unit.
func printResult(res *result) {
	fmt.Printf("\nworkload %s: valid=%v attempts=%d elems_offered=%d elems_failed=%d (lost %d, duplicated %d) delay_samples=%d\n",
		res.Name, res.Valid, res.Attempts, res.ElemsOffered, res.ElemsFailed, res.Lost, res.Duplicated, res.Samples)
	if !res.Valid {
		fmt.Printf("  INVALID: %s\n  %s\n", res.Reason, res.Diagnosis)
		return
	}
	fmt.Printf("  %-40s %14s %-6s %14s %14s\n", "metric", "median", "unit", "q1", "q3")
	for _, m := range metricTable() {
		v, ok := res.Metrics[m.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-40s %14.4f %-6s %14.4f %14.4f\n", m.name, v.Value, v.Unit, v.Q1, v.Q3)
	}
}

// printDriverLine prints the one-line result BENCHMARK.json's driver reads:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printDriverLine(res *result, traced bool) {
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{Correct: res.Valid, Attempted: max(1, res.ElemsOffered), Failed: res.ElemsFailed, Metrics: map[string]driverValue{}}
	for _, m := range metricTable() {
		if v, ok := res.Metrics[m.name]; ok && m.e2e != traced {
			line.Metrics[m.name] = driverValue{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "result line:", err)
		return
	}
	fmt.Println(string(b))
}

// loadReport reads a result file.
func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
