package main

import (
	"fmt"
	"math"

	"streamha/internal/element"
	"streamha/internal/ha"
)

// reportWrap sets the wrap metrics of a traced run: what the pe.Logic
// wrapper saw in the traced (odd) windows, and the tracing overhead as the
// difference between the traced and the untraced (even) windows of the same
// deployment.
// It returns the median delay of the untraced windows.
func reportWrap(tr *tracer, wins []*window, single func(string, float64)) (untracedP50 float64) {
	t := tr.totals()
	for i := 0; i < 4; i++ {
		v := 0.0
		if h := t.arrive[i]; h != nil {
			v = h.quantile(0.5) / 1e6
		}
		single(fmt.Sprintf("subjob.sj%d.arrive_ms", i), v)
	}
	var traced hist
	var p50On, p50Off, cpuOn, cpuOff []float64
	for k, win := range wins {
		p50 := win.delays.quantile(0.5) / 1e6
		cpu := win.perElem("cpu_ns")
		if k%2 == 1 {
			traced.merge(win.delays)
			p50On, cpuOn = append(p50On, p50), append(cpuOn, cpu)
		} else {
			p50Off, cpuOff = append(p50Off, p50), append(cpuOff, cpu)
		}
	}
	single("cluster.sink.arrive_ms", traced.quantile(0.5)/1e6)
	single("pe.process_ns_per_elem", math.Max(0, ratio(float64(t.timedNS), float64(t.timed))-tr.clockNS))
	single("pe.snapshot_ms", ratio(float64(t.snapNS), float64(t.snaps))/1e6)
	single("pe.delta_snapshot_ms", ratio(float64(t.deltaNS), float64(t.deltas))/1e6)
	single("pe.restore_ms", ratio(float64(t.restNS), float64(t.restores))/1e6)
	overhead := func(on, off []float64) float64 {
		if len(on) == 0 || len(off) == 0 {
			return 0
		}
		return 100 * (ratio(median(on), median(off)) - 1)
	}
	single("proc.trace_overhead_pct", overhead(p50On, p50Off))
	single("proc.trace_cpu_overhead_pct", overhead(cpuOn, cpuOff))
	return median(p50Off)
}

// liveCopies is the number of copies of stage i that process data when
// nothing has failed; the source (-1) and the sink (len(modes)) count one.
func liveCopies(w *workload, i int) float64 {
	if i >= 0 && i < len(w.modes) && w.modes[i] == ha.ModeActive {
		return 2
	}
	return 1
}

// reportBudget prints the per-layer budget of a traced run and sets
// proc.unattributed_pct. The CPU budget multiplies each drive's or wrap's
// cost per call by the calls one delivered element causes in this chain and
// sets the sum against the CPU time the process used per element; the
// residence budget is the element's median age at each stamp, whose last
// value should be the untraced median delay.
func reportBudget(w *workload, res *result, untracedP50 float64, single func(string, float64)) {
	m := func(name string) float64 { return res.Metrics[name].Value }
	var copies float64
	for i := range w.modes {
		copies += liveCopies(w, i)
	}
	// Capture is real CPU work only where the simulated checkpoint charge
	// is disabled; elsewhere the pause is mostly that charge, which sleeps.
	realCapture := w.hybrid.CheckpointCosts.Disabled
	ckpt, capture := 0.0, 0.0
	for _, mode := range w.modes {
		if v := variantOf(mode); v != "" {
			perElem := 1e6 * m("checkpoint."+v+".taken_per_s") / w.rate
			ckpt += m("checkpoint."+v+".encode_ms") * perElem
			if realCapture {
				capture += m("checkpoint."+v+".pause_ms") * perElem
			}
		}
	}
	rows := []struct {
		layer string
		calls float64
		ns    float64
	}{
		{"queue.publish", 1 + copies, m("queue.publish_ns_per_elem")},
		{"queue.input", copies + 1, m("queue.input_ns_per_elem")},
		{"transport.encode", m("transport.wire_bytes_per_elem") / element.EncodedSize, m("transport.encode_ns_per_elem")},
		{"transport.decode", m("transport.wire_bytes_per_elem") / element.EncodedSize, m("transport.decode_ns_per_elem")},
		{"pe.process", copies * float64(w.pes), m("pe.process_ns_per_elem")},
		{"checkpoint.capture", 1, capture},
		{"checkpoint.encode", 1, ckpt},
		{"subjob.decode (fold)", m("transport.ckpt_units_per_elem"), m("subjob.decode_ns_per_unit")},
		{"metrics.delaystats", 1, m("metrics.delaystats_add_ns")},
	}
	cpu := m("proc.cpu_us_per_elem") * 1e3
	fmt.Printf("\nbudget %s: CPU ns per delivered element\n", w.name)
	fmt.Printf("  %-22s %10s %12s %12s\n", "layer", "calls/elem", "ns/call", "ns/elem")
	sum := 0.0
	for _, r := range rows {
		fmt.Printf("  %-22s %10.2f %12.1f %12.1f\n", r.layer, r.calls, r.ns, r.calls*r.ns)
		sum += r.calls * r.ns
	}
	unattributed := 100 * ratio(cpu-sum, cpu)
	fmt.Printf("  %-22s %10s %12s %12.1f\n", "attributed", "", "", sum)
	fmt.Printf("  %-22s %10s %12s %12.1f  (%.1f %% unattributed: timers, scheduling, GC, acks, heartbeats)\n",
		"proc.cpu_us_per_elem", "", "", cpu, unattributed)
	single("proc.unattributed_pct", unattributed)

	fmt.Printf("budget %s: median element age at each stamp, ms\n", w.name)
	prev := 0.0
	for i := range w.modes {
		age := m(fmt.Sprintf("subjob.sj%d.arrive_ms", i))
		fmt.Printf("  %-22s %10.3f  (+%.3f)\n", fmt.Sprintf("subjob.sj%d.arrive", i), age, age-prev)
		prev = age
	}
	sink := m("cluster.sink.arrive_ms")
	fmt.Printf("  %-22s %10.3f  (+%.3f)\n", "cluster.sink.arrive", sink, sink-prev)
	fmt.Printf("  %-22s %10.3f  (traced against untraced windows: delay %+.1f %%, CPU %+.1f %%)\n", "delay_p50_ms untraced",
		untracedP50, m("proc.trace_overhead_pct"), m("proc.trace_cpu_overhead_pct"))
}
