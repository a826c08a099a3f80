package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"streamha/internal/core"
	"streamha/internal/element"
)

// runOptions is how one workload is run. The driver and run.sh use the
// defaults; only the tests shorten the window and lower the rate.
type runOptions struct {
	seed      int64
	windows   int
	window    time.Duration
	ready     time.Duration // input the sink must have delivered before a deployment is ready
	setups    int           // deployments brought to ready; setup_s is their median
	rateScale float64       // multiplies the workload's rate
	traced    bool
	drives    bool          // run the isolated drives after a traced run
	drive     time.Duration // how long each timed loop of a drive runs
}

const (
	defaultWindow = 2 * time.Second
	// defaultReady of input must have reached the sink before a deployment
	// counts as ready, which paces set-up by the source.
	defaultReady = 2 * time.Second
	readyTimeout = 15 * time.Second
	drainTimeout = 2 * time.Second
)

// result is what one workload run reports.
type result struct {
	Name   string `json:"name"`
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
	// Diagnosis says, for an invalid run, what the lifecycles recorded and
	// what the source emitted and the sink delivered in every window.
	Diagnosis string `json:"diagnosis,omitempty"`
	// Attempts is how many times the workload was run: an attempt the host
	// disturbed beyond what the windows absorb is discarded and repeated.
	Attempts     int              `json:"attempts"`
	ElemsOffered int64            `json:"elems_offered"`
	ElemsFailed  int64            `json:"elems_failed"`
	Lost         int64            `json:"elems_lost"`
	Duplicated   int64            `json:"elems_duplicated"`
	Samples      int64            `json:"delay_samples"`
	Metrics      map[string]value `json:"metrics,omitempty"`

	spans []span
	// wrong is set when the chain itself misbehaved (the audit failed), as
	// opposed to the host disturbing the run; such a run is not repeated.
	wrong bool
}

// invalid marks the run invalid; Reason collects every rule it broke.
func (r *result) invalid(format string, args ...any) {
	if !r.Valid {
		r.Reason += "; "
	}
	r.Valid = false
	r.Reason += fmt.Sprintf(format, args...)
}

// recorder is the sink's arrival callback state. Only the sink's goroutine
// writes it, and it is read after that goroutine has stopped; t0 alone is
// shared while running.
type recorder struct {
	t0     atomic.Int64 // start of window 0 in Unix ns; 0 until measuring
	window int64
	hops   int64
	delays []hist  // one per window
	seen   []uint8 // deliveries per element ID
	alien  int64   // IDs the source never emitted
	wrong  int64   // payloads that did not cross every PE exactly once
}

func (r *recorder) arrive(e element.Element, at time.Time) {
	if e.ID == 0 || e.ID >= uint64(len(r.seen)) {
		r.alien++
	} else if r.seen[e.ID] < 255 {
		r.seen[e.ID]++
	}
	if e.Payload != int64(e.ID)+r.hops {
		r.wrong++
	}
	t0 := r.t0.Load()
	if t0 == 0 {
		return
	}
	now := at.UnixNano()
	if k := (now - t0) / r.window; now >= t0 && k < int64(len(r.delays)) {
		r.delays[k].add(now - e.Origin)
	}
}

// stall is one injected CPU stall. The switchovers and rollbacks up to
// until — the next stall, or the end of the span — are attributed to it.
type stall struct{ start, end, until time.Time }

// within reports whether from <= t < to.
func within(t, from, to time.Time) bool { return !t.Before(from) && t.Before(to) }

// checkpointsAcked reports whether every checkpoint manager has had at least
// one checkpoint acknowledged by its store.
func checkpointsAcked(d *deployment) bool {
	for _, st := range d.stages {
		if st.lc == nil {
			continue
		}
		if cm := st.lc.Checkpoint(); cm != nil {
			if cs := cm.Stats(); cs.Taken-cs.Pending < 1 {
				return false
			}
		}
	}
	return true
}

// ready brings a deployment up and waits until it is ready: the sink has
// delivered `input` worth of elements and every checkpoint manager has had
// a checkpoint acknowledged.
func ready(w *workload, rate float64, input time.Duration, tr *tracer, rec *recorder) (d *deployment, setup, build, start time.Duration, err error) {
	begin := time.Now()
	d, err = deploy(w, rate, tr, rec.arrive)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	build = time.Since(begin)
	if err = d.start(); err != nil {
		d.stop()
		return nil, 0, 0, 0, err
	}
	start = time.Since(begin) - build
	want := uint64(input.Seconds() * rate)
	for {
		if d.sink.Received() >= want && checkpointsAcked(d) {
			return d, time.Since(begin), build, start, nil
		}
		if time.Since(begin) > readyTimeout {
			d.stop()
			return nil, 0, 0, 0, fmt.Errorf("not ready after %v: sink has %d of %d elements", readyTimeout, d.sink.Received(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// baseUnits is the number of data units one element costs when nothing is
// retransmitted: one per producer copy and consumer copy of every link.
func baseUnits(w *workload) float64 {
	n := 0.0
	for link := 0; link <= len(w.modes); link++ {
		n += liveCopies(w, link-1) * liveCopies(w, link)
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// run is the state of one workload run, filled in phase by phase.
type run struct {
	w    *workload
	opt  runOptions
	rate float64
	res  *result

	tr  *tracer
	d   *deployment
	rec *recorder

	setups, builds, starts, stops []float64 // one entry per set-up (or stop)

	t0       time.Time
	elapsed  time.Duration
	readings []counters // at the start of window 0 and the end of every window
	stalls   []stall

	emitted uint64   // elements the source had emitted when it was stopped
	last    counters // the reading after the drain
	heapMB  float64
	events  *events
	leaked  int
}

// runWorkload runs one workload: set-up (opt.setups times), the measured
// windows, the drain, the audit, the report and the validity checks.
func runWorkload(w *workload, opt runOptions) *result {
	r := &run{w: w, opt: opt, rate: w.rate * opt.rateScale,
		res: &result{Name: w.name, Valid: true, Metrics: map[string]value{}}}
	goroutines := runtime.NumGoroutine()
	if err := r.setUp(); err != nil {
		r.res.invalid("set-up: %v", err)
		return r.res
	}
	r.measure()
	r.drain()
	time.Sleep(20 * time.Millisecond) // let stopped goroutines unwind before counting them
	r.leaked = runtime.NumGoroutine() - goroutines
	r.audit()
	r.report()
	r.validate()
	if !r.res.Valid {
		r.res.Metrics = nil
	}
	return r.res
}

// setUp brings opt.setups deployments to ready, one after the other. The
// throwaway ones are stopped as soon as they are ready; the last is the one
// measured.
func (r *run) setUp() error {
	span := time.Duration(r.opt.windows) * r.opt.window
	for i := 0; i < r.opt.setups; i++ {
		if r.opt.traced {
			r.tr = newTracer(r.w.name)
		}
		// Room for every ID the source can emit before it is stopped.
		ids := int(r.rate * (readyTimeout + span + 2*drainTimeout).Seconds())
		r.rec = &recorder{
			window: int64(r.opt.window),
			hops:   int64(r.w.hops()),
			delays: make([]hist, r.opt.windows),
			seen:   make([]uint8, ids+1),
		}
		d, setup, build, start, err := ready(r.w, r.rate, r.opt.ready, r.tr, r.rec)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, setup.Seconds())
		r.builds = append(r.builds, ms(build))
		r.starts = append(r.starts, ms(start))
		if i == r.opt.setups-1 {
			r.d = d
			break
		}
		t := time.Now()
		d.stop()
		r.stops = append(r.stops, ms(time.Since(t)))
	}
	return nil
}

// measure takes a reading at every window boundary and, on a stall
// workload, injects one stall per window.
func (r *run) measure() {
	rng := rand.New(rand.NewSource(r.opt.seed))
	// 100-900 ms into a 2 s window, 600 ms long; both scale with the window.
	stallOffset := time.Duration(100+rng.Intn(801)) * r.opt.window / 2000
	stallLen := stallLength * r.opt.window / defaultWindow
	r.readings = make([]counters, r.opt.windows+1)
	r.t0 = time.Now()
	r.rec.t0.Store(r.t0.UnixNano())
	r.readings[0] = probe(r.d)
	for k := 0; k < r.opt.windows; k++ {
		begin := r.t0.Add(time.Duration(k) * r.opt.window)
		if r.tr != nil {
			// Odd windows are traced, even ones are not: the difference
			// between the two sets is the tracing overhead.
			r.tr.on.Store(k%2 == 1)
			r.tr.window.Store(r.tr.nextID.Add(1))
		}
		if r.w.stall {
			// The heartbeat, checkpoint and tick periods all divide the
			// window, so stalls at one fixed offset would meet every one
			// of them at the same phase all run long, and at another phase
			// in the next run. Stepping the offset through one heartbeat
			// period over the run makes every run sample all phases.
			phase := heartbeat * time.Duration(k) / time.Duration(r.opt.windows)
			time.Sleep(time.Until(begin.Add(stallOffset + phase)))
			cpu := r.d.stages[stalledSubjob].cpu
			s := stall{start: time.Now()}
			cpu.SetBackgroundLoad(stallLoad)
			time.Sleep(stallLen)
			cpu.SetBackgroundLoad(0)
			s.end = time.Now()
			r.stalls = append(r.stalls, s)
		}
		time.Sleep(time.Until(begin.Add(r.opt.window)))
		r.readings[k+1] = probe(r.d)
		if r.tr != nil {
			name := "window.untraced"
			if r.tr.on.Load() {
				name = "window.traced"
			}
			r.tr.add(r.tr.window.Load(), 0, name, begin, time.Now())
		}
	}
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	r.elapsed = time.Since(r.t0)
	for i := range r.stalls {
		r.stalls[i].until = r.t0.Add(r.elapsed)
		if i+1 < len(r.stalls) {
			r.stalls[i].until = r.stalls[i+1].start
		}
	}
}

// drain stops the source, gives the sink drainTimeout to catch up, takes
// the last readings and stops the deployment.
func (r *run) drain() {
	r.d.source.Stop()
	r.emitted = r.d.source.Emitted()
	for deadline := time.Now().Add(drainTimeout); r.d.sink.Received() < r.emitted && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	r.last = probe(r.d)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	r.events = collectEvents(r.d)
	t := time.Now()
	r.d.stop()
	r.stops = append(r.stops, ms(time.Since(t)))
}

// audit checks that every ID the source emitted was delivered exactly once,
// with a payload that crossed every PE once. An operation is an element
// emitted in the measured span.
func (r *run) audit() {
	res, rec := r.res, r.rec
	first := uint64(r.readings[0]["emitted"]) + 1
	for id := uint64(1); id <= r.emitted; id++ {
		n := rec.seen[id]
		if id < first {
			// Emitted while getting ready: checked, but not an operation.
			if n != 1 {
				res.wrong = true
				res.invalid("audit: element %d, emitted before the measured span, was delivered %d times", id, n)
			}
			continue
		}
		res.ElemsOffered++
		switch {
		case n == 0:
			res.Lost++
		case n > 1:
			res.Duplicated++
		}
	}
	res.ElemsFailed = res.Lost + res.Duplicated
	if res.ElemsFailed > 0 || rec.alien > 0 || rec.wrong > 0 {
		res.wrong = true
		res.invalid("audit: %d lost, %d duplicated, %d unknown IDs, %d wrong payloads of %d offered",
			res.Lost, res.Duplicated, rec.alien, rec.wrong, res.ElemsOffered)
	}
}

// report computes every metric of the run.
func (r *run) report() {
	res := r.res
	wins := make([]*window, r.opt.windows)
	for k := range wins {
		wins[k] = &window{
			secs:   r.opt.window.Seconds(),
			elems:  float64(r.rec.delays[k].n),
			c0:     r.readings[k],
			c1:     r.readings[k+1],
			delays: &r.rec.delays[k],
			rate:   r.rate,
			base:   baseUnits(r.w),
		}
		res.Samples += int64(r.rec.delays[k].n)
	}
	table := metricTable()
	units := map[string]string{}
	for _, m := range table {
		units[m.name] = m.unit
	}
	// set stores a metric under its name, with the unit the table gives it.
	set := func(name string, v value) {
		unit, ok := units[name]
		if !ok {
			panic("metric not in the table: " + name)
		}
		v.Unit = unit
		res.Metrics[name] = v
	}
	for _, m := range table {
		if m.win == nil {
			continue
		}
		vals := make([]float64, len(wins))
		for k, win := range wins {
			vals[k] = m.win(win)
		}
		set(m.name, windowValue(vals))
	}
	single := func(name string, v float64) { set(name, value{Value: v, Q1: v, Q3: v}) }
	set("setup_s", windowValue(r.setups))
	set("ha.build_ms", windowValue(r.builds))
	set("ha.start_ms", windowValue(r.starts))
	set("ha.stop_ms", windowValue(r.stops))
	single("ha.goroutines_leaked", float64(r.leaked))
	single("proc.live_heap_mb", r.heapMB)
	r.events.report(r.w, r.stalls, r.t0, r.elapsed, set, single)
	if r.tr == nil {
		return
	}
	untraced := reportWrap(r.tr, wins, single)
	r.events.spans(r.stalls, r.tr)
	if r.opt.drives {
		if err := runDrives(r.w, r.opt.drive, r.tr, single); err != nil {
			res.invalid("drive: %v", err)
		}
		reportBudget(r.w, res, untraced, single)
	}
	res.spans = r.tr.spans
	sort.Slice(res.spans, func(i, j int) bool { return res.spans[i].StartNS < res.spans[j].StartNS })
}

// validate marks the run invalid when it was not the workload it claims to
// be, so that its numbers are not reported as if it were. The reported value
// is a median over the windows, so a disturbance confined to fewer than a
// quarter of them — a host hiccup, and the short tick or the switchover it
// causes — leaves the run valid; one that lasts, or changes the deployment,
// does not.
func (r *run) validate() {
	res, w := r.res, r.w
	// A window is short when the source emitted under 99 % of its rate; it
	// owes nothing for the tick that is open when the window ends.
	short, due := 0, r.rate*(r.opt.window-w.tick).Seconds()
	for k := 0; k < r.opt.windows; k++ {
		if r.readings[k+1]["emitted"]-r.readings[k]["emitted"] < 0.99*due {
			short++
		}
	}
	if short > r.opt.windows/4 {
		res.invalid("source shortfall: in %d of %d windows the source emitted under 99 %% of %.0f elements", short, r.opt.windows, due)
	}
	if grow := r.readings[r.opt.windows]["sink.backlog"] - r.readings[1]["sink.backlog"]; grow > r.rate {
		res.invalid("growing backlog: %.0f elements more in flight after the last window than after the first", grow)
	}
	// A false migration moves a passive subjob for the rest of the run; a
	// false switchover is rolled back within a window.
	if !w.stall && r.events.migrations > 0 {
		res.invalid("false migration: %d passive-standby migrations on a workload without stalls", r.events.migrations)
	}
	if !w.stall && len(r.events.switches) > r.opt.windows/4 {
		res.invalid("false switchovers: %d on a workload without stalls, more than a quarter of its %d windows",
			len(r.events.switches), r.opt.windows)
	}
	if dropped := r.last["wire.dropped"]; dropped > 0 {
		res.invalid("transport dropped %.0f frames", dropped)
	}
	if gaps := r.last["q.gaps"]; gaps > 0 {
		res.invalid("input queues saw %.0f sequence gaps", gaps)
	}
	if !res.Valid {
		emitted, delivered := make([]float64, r.opt.windows), make([]uint64, r.opt.windows)
		for k := range emitted {
			emitted[k] = r.readings[k+1]["emitted"] - r.readings[k]["emitted"]
			delivered[k] = r.rec.delays[k].n
		}
		res.Diagnosis = fmt.Sprintf("%d switchovers, %d rollbacks, %d migrations, %d detector failures; emitted per window %.0f; delivered per window %d",
			len(r.events.switches), len(r.events.rollbacks), r.events.migrations, r.events.failures, emitted, delivered)
	}
}

// events is what the lifecycles recorded over a run.
type events struct {
	switches   []core.SwitchEvent
	rollbacks  []core.RollbackEvent
	migrations int
	failures   int // detector failure declarations
}

func collectEvents(d *deployment) *events {
	ev := &events{}
	for _, st := range d.stages {
		if st.lc == nil {
			continue
		}
		ev.switches = append(ev.switches, st.lc.Switches()...)
		ev.rollbacks = append(ev.rollbacks, st.lc.Rollbacks()...)
		ev.migrations += len(st.lc.Migrations())
		if det := st.lc.Detector(); det != nil {
			ev.failures += det.Stats().Failures
		}
	}
	sort.Slice(ev.switches, func(i, j int) bool { return ev.switches[i].DetectedAt.Before(ev.switches[j].DetectedAt) })
	sort.Slice(ev.rollbacks, func(i, j int) bool { return ev.rollbacks[i].StartedAt.Before(ev.rollbacks[j].StartedAt) })
	return ev
}

// report sets the core.* and detect.* metrics: one value per injected stall,
// from the first switchover after the stall began and the first rollback
// after it ended.
func (ev *events) report(w *workload, stalls []stall, t0 time.Time, elapsed time.Duration,
	set func(string, value), single func(string, float64)) {
	var switchMS, rollbackMS, units, detectMS, recoverMS []float64
	adopted, inSpan := 0, 0
	for _, s := range ev.switches {
		if within(s.DetectedAt, t0, t0.Add(elapsed)) {
			inSpan++
		}
	}
	for _, st := range stalls {
		for _, s := range ev.switches {
			if within(s.DetectedAt, st.start, st.until) {
				switchMS = append(switchMS, ms(s.ReadyAt.Sub(s.DetectedAt)))
				detectMS = append(detectMS, ms(s.DetectedAt.Sub(st.start)))
				break
			}
		}
		for _, r := range ev.rollbacks {
			if within(r.StartedAt, st.end, st.until) {
				rollbackMS = append(rollbackMS, ms(r.DoneAt.Sub(r.StartedAt)))
				recoverMS = append(recoverMS, ms(r.StartedAt.Sub(st.end)))
				units = append(units, float64(r.StateUnits))
				break
			}
		}
	}
	for _, r := range ev.rollbacks {
		if r.Adopted {
			adopted++
		}
	}
	set("core.switch_ms", windowValue(switchMS))
	set("core.rollback_ms", windowValue(rollbackMS))
	set("core.readstate_units", windowValue(units))
	set("detect.detect_ms", windowValue(detectMS))
	set("detect.recover_ms", windowValue(recoverMS))
	single("core.rollback_adopted_ratio", ratio(float64(adopted), float64(len(ev.rollbacks))))
	single("core.switchovers_per_stall", ratio(float64(inSpan), float64(len(stalls))))
	falseSwitches, falseFailures := 0, 0
	if !w.stall {
		falseSwitches, falseFailures = len(ev.switches)+ev.migrations, ev.failures
	} else if extra := ev.failures - len(stalls); extra > 0 {
		falseFailures = extra
	}
	single("core.false_switchovers", float64(falseSwitches))
	single("detect.false_failures", float64(falseFailures))
}

// spans rebuilds the failure-handling spans: one per injected stall, with
// the switchover and rollback it caused as children.
func (ev *events) spans(stalls []stall, tr *tracer) {
	for _, st := range stalls {
		id := tr.add(tr.nextID.Add(1), 0, "stall", st.start, st.end)
		for _, s := range ev.switches {
			if within(s.DetectedAt, st.start, st.until) {
				tr.add(tr.nextID.Add(1), id, "core.switchover", s.DetectedAt, s.ReadyAt)
			}
		}
		for _, r := range ev.rollbacks {
			if within(r.StartedAt, st.start, st.until) {
				tr.add(tr.nextID.Add(1), id, "core.rollback", r.StartedAt, r.DoneAt)
			}
		}
	}
}
