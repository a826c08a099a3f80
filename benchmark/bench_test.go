package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"streamha/internal/core"
)

func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	vals := make([]float64, 200000)
	for i := range vals {
		// Delays from 1 µs to about 1 s, dense around a few ms.
		v := int64(math.Exp(rng.NormFloat64()*2+15)) + 1000
		vals[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if err := math.Abs(got-want) / want; err > 0.01 {
			t.Errorf("quantile(%g) = %.0f, exact %.0f: error %.2f %% > 1 %%", q, got, want, 100*err)
		}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if got, want := h.mean(), sum/float64(len(vals)); math.Abs(got-want) > 1e-6*want {
		t.Errorf("mean = %g, want %g", got, want)
	}
	if h.max != int64(vals[len(vals)-1]) {
		t.Errorf("max = %d, want %.0f", h.max, vals[len(vals)-1])
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 40, 1 << 62} {
		lo, width := histBucket(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width || width > math.Max(1, lo/128) {
			t.Errorf("value %d fell in bucket [%g, %g)", v, lo, lo+width)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Errorf("empty histogram: p50=%g mean=%g", empty.quantile(0.5), empty.mean())
	}
}

func TestWindowAggregation(t *testing.T) {
	// Expected values are Python's statistics.quantiles(vals, n=4).
	cases := []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{11, 3, 7, 1, 9, 5, 2, 8, 4, 10, 6}, 3, 6, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{5}, 5, 5, 5},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		v := windowValue(c.vals)
		if v.Q1 != c.q1 || v.Value != c.med || v.Q3 != c.q3 || len(v.Windows) != len(c.vals) {
			t.Errorf("windowValue(%v) = %+v, want q1 %g median %g q3 %g", c.vals, v, c.q1, c.med, c.q3)
		}
	}
}

func TestNamesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads() {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
		if len(w.modes) == 0 || len(w.modes) > 4 {
			t.Errorf("workload %s: %d subjobs; the arrive_ms metrics cover four", w.name, len(w.modes))
		}
	}
	for _, m := range metricTable() {
		if !name.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is malformed", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
	}
}

// TestBenchmarkJSONMatchesTheHarness fails when BENCHMARK.json and the
// harness disagree, in either direction, about a workload or a metric.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	named := map[string]bool{}
	for _, w := range doc.Workloads {
		named[w.Name] = true
		if hw, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json names workload %q: %v", w.Name, err)
		} else if hw.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says why %q, the harness %q", w.Name, w.Why, hw.why)
		}
	}
	for _, w := range workloads() {
		if !named[w.name] {
			t.Errorf("BENCHMARK.json does not name workload %q", w.name)
		}
	}
	inFile := map[string]entry{}
	for _, e := range doc.EndToEnd {
		inFile["end_to_end "+e.Name] = e
	}
	for _, e := range doc.PerLayer {
		inFile["per_layer "+e.Name] = e
	}
	for _, m := range metricTable() {
		key := "per_layer " + m.name
		if m.e2e {
			key = "end_to_end " + m.name
		}
		e, ok := inFile[key]
		if !ok {
			t.Errorf("BENCHMARK.json lacks %s", key)
			continue
		}
		delete(inFile, key)
		if e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("%s: BENCHMARK.json says %+v, the harness unit %q better %q bound %g", key, e, m.unit, m.better, m.bound)
		}
	}
	for key := range inFile {
		t.Errorf("BENCHMARK.json names %s, which the harness does not emit", key)
	}
}

func smokeOptions(w *workload) runOptions {
	if raceBuild {
		w.pad = min(w.pad, 200)
	}
	return runOptions{
		seed:    3,
		windows: 1,
		window:  500 * time.Millisecond,
		ready:   200 * time.Millisecond,
		setups:  1,
		// At most 5000 elems/s, so that the smoke also passes under -race.
		rateScale: math.Min(1, 5000/w.rate),
		drive:     5 * time.Millisecond,
	}
}

func checkSmoke(t *testing.T, res *result, traced bool) {
	t.Helper()
	if !res.Valid {
		t.Fatalf("invalid run: %s", res.Reason)
	}
	if res.ElemsOffered == 0 || res.ElemsFailed != 0 {
		t.Fatalf("exactly-once audit: %d offered, %d failed", res.ElemsOffered, res.ElemsFailed)
	}
	for _, m := range metricTable() {
		v, ok := res.Metrics[m.name]
		switch {
		case !ok && (m.e2e || traced || m.win != nil):
			t.Errorf("metric %s was not emitted", m.name)
		case ok && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)):
			t.Errorf("metric %s = %g", m.name, v.Value)
		case ok && m.e2e && v.Value <= 0:
			t.Errorf("end-to-end metric %s = %g, want > 0", m.name, v.Value)
		case ok && v.Unit != m.unit:
			t.Errorf("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
}

// TestWorkloadSmoke runs one short window of every workload at a reduced
// rate: the exactly-once audit passes and every end-to-end metric is there.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := runWorkload(w, smokeOptions(w))
			checkSmoke(t, res, false)
			if w.stall && res.Metrics["core.switchovers_per_stall"].Value < 1 {
				t.Errorf("the injected stall caused no switchover")
			}
		})
	}
}

// TestTracedSmoke runs a traced pass with its drives and checks that every
// metric of the table, which is every metric BENCHMARK.json names, is
// emitted, and that the spans are there.
func TestTracedSmoke(t *testing.T) {
	w, err := workloadByName("ckpt-mixed")
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions(w)
	opt.windows, opt.traced, opt.drives = 2, true, true
	res := runWorkload(w, opt)
	checkSmoke(t, res, true)
	names := map[string]int{}
	for _, s := range res.spans {
		names[s.Name]++
		if s.EndNS < s.StartNS || s.Workload != w.name || s.ID == 0 {
			t.Errorf("malformed span %+v", s)
		}
	}
	for _, want := range []string{"window.traced", "window.untraced", "drive.queue.publish", "drive.subjob.codec"} {
		if names[want] == 0 {
			t.Errorf("no %s span among %v", want, names)
		}
	}
}

// TestValidityToleratesFewDisturbedWindows pins the rule that a disturbance
// confined to fewer than a quarter of the windows leaves a run valid, while
// one that lasts or changes the deployment does not.
func TestValidityToleratesFewDisturbedWindows(t *testing.T) {
	w, err := workloadByName("ckpt-mixed")
	if err != nil {
		t.Fatal(err)
	}
	const windows = 11
	validate := func(shortWindows, switches, migrations int, backlogGrowth float64) *result {
		r := &run{
			w:      w,
			opt:    runOptions{windows: windows, window: defaultWindow},
			rate:   w.rate,
			res:    &result{Valid: true},
			rec:    &recorder{delays: make([]hist, windows)},
			events: &events{switches: make([]core.SwitchEvent, switches), migrations: migrations},
			last:   counters{},
		}
		emitted := 0.0
		r.readings = []counters{{"emitted": 0, "sink.backlog": 30}}
		for k := 0; k < windows; k++ {
			n := w.rate * defaultWindow.Seconds()
			if k < shortWindows {
				n *= 0.6
			}
			emitted += n
			r.readings = append(r.readings, counters{"emitted": emitted, "sink.backlog": 30})
		}
		r.readings[windows]["sink.backlog"] += backlogGrowth
		r.validate()
		return r.res
	}
	cases := []struct {
		name                        string
		short, switches, migrations int
		backlogGrowth               float64
		valid                       bool
	}{
		{"clean", 0, 0, 0, 0, true},
		{"two short windows and two switchovers", 2, 2, 0, 0, true},
		{"three short windows", 3, 0, 0, 0, false},
		{"three switchovers", 0, 3, 0, 0, false},
		{"one migration", 0, 0, 1, 0, false},
		{"backlog grew by two seconds of input", 0, 0, 0, 2 * w.rate, false},
	}
	for _, c := range cases {
		if res := validate(c.short, c.switches, c.migrations, c.backlogGrowth); res.Valid != c.valid {
			t.Errorf("%s: valid = %v (%s), want %v", c.name, res.Valid, res.Reason, c.valid)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	noisy := []float64{8, 12, 9, 11, 10}
	cases := []struct {
		a, b []float64
		want string
	}{
		{steady, steady, "within"},
		{steady, []float64{10.8, 10.9, 10.7, 10.8, 10.85}, "within"},
		{steady, []float64{11.2, 11.3, 11.1, 11.2, 11.25}, "worse"},
		{steady, []float64{8, 8.1, 7.9, 8, 8.05}, "within"},
		{steady, noisy, "unresolved"},
		{noisy, []float64{12, 12.1, 11.9, 12, 12.05}, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
