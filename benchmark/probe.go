package main

import (
	"runtime"
	"syscall"
	"time"

	"streamha/internal/ha"
	"streamha/internal/transport"
)

// counters is one reading of every cumulative counter and gauge the window
// metrics are computed from, taken through the components' public Stats
// views. A window's metrics are functions of the reading at its start and
// the reading at its end.
type counters map[string]float64

// variantOf names the checkpointing variant of a mode ("" for none).
func variantOf(m ha.Mode) string {
	switch m {
	case ha.ModePassive, ha.ModeHybrid, ha.ModeApprox:
		return m.String()
	}
	return ""
}

var variants = []string{"passive", "hybrid", "approx"}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe reads every counter of a running deployment.
func probe(d *deployment) counters {
	c := counters{}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"] = float64(ms.Mallocs)
	c["alloc_bytes"] = float64(ms.TotalAlloc)
	c["gc_cycles"] = float64(ms.NumGC)
	c["gc_pause_ns"] = float64(ms.PauseTotalNs)
	c["cpu_ns"] = float64(processCPU())
	c["goroutines"] = float64(runtime.NumGoroutine())

	emitted := float64(d.source.Emitted())
	received := float64(d.sink.Received())
	c["emitted"] = emitted
	c["received"] = received
	c["sink.backlog"] = emitted - received

	net := d.netStats()
	c["net.msgs"] = float64(net.TotalMessages())
	c["net.units"] = float64(net.TotalElements())
	c["net.data_units"] = float64(net.DataElements())
	c["net.ckpt_units"] = float64(net.CheckpointElements())
	c["net.readstate_units"] = float64(net.Elements[transport.KindReadStateResp])
	c["net.ack_msgs"] = float64(net.Messages[transport.KindAck])
	c["net.hb_msgs"] = float64(net.Messages[transport.KindPing] + net.Messages[transport.KindPong])
	c["wire.bytes"] = float64(net.Wire.BytesSent)
	c["wire.frames"] = float64(net.Wire.FramesSent)
	c["wire.batches"] = float64(net.Wire.Batches)
	c["wire.dropped"] = float64(net.Wire.FramesDropped)

	sink := d.sink.Stats()
	dups, gaps := float64(sink.InputDups), float64(sink.InputGaps)
	retained := float64(d.source.Out().Stats().Retained)
	var backlog, simCPU float64
	perVariant := map[string]float64{}
	for _, st := range d.stages {
		simCPU += float64(st.cpu.WorkDone())
		for _, rt := range st.copies() {
			rs := rt.Stats()
			backlog += float64(rs.Backlog)
			retained += float64(rs.Output.Retained)
			dups += float64(rs.InputDups)
			gaps += float64(rs.InputGaps)
		}
		if st.lc == nil {
			continue
		}
		c["core.chain_breaks"] += float64(st.lc.ChainBreaks())
		if det := st.lc.Detector(); det != nil {
			ds := det.Stats()
			c["det.pings"] += float64(ds.Sent)
			c["det.failures"] += float64(ds.Failures)
		}
		if store := st.lc.Store(); store != nil {
			ss := store.Stats()
			c["store.folds"] += float64(ss.Fulls + ss.DeltaFolds)
			c["store.drops"] += float64(ss.DeltaDrops)
		}
		if sb := st.lc.StandbyStoreRef(); sb != nil {
			partials, _, _ := sb.PartialStats()
			c["store.folds"] += float64(sb.Applied() + partials)
			c["store.drops"] += float64(sb.DeltaDrops())
		}
		cm := st.lc.Checkpoint()
		v := variantOf(st.mode)
		if cm == nil || v == "" {
			continue
		}
		cs := cm.Stats()
		shipped := float64(cs.Fulls + cs.Deltas + cs.Partials)
		perVariant[v]++
		c["ck."+v+".taken"] += float64(cs.Taken)
		c["ck."+v+".pause_ms"] += cs.MeanPauseMS * float64(cs.Taken)
		c["ck."+v+".shipped"] += shipped
		c["ck."+v+".encode_ms"] += cs.MeanEncodeMS * shipped
		c["ck."+v+".ship_ms"] += cs.MeanShipMS * shipped
		c["ck."+v+".bytes"] += float64(cs.BytesFull + cs.BytesDelta + cs.BytesPartial)
		c["ck."+v+".full_bytes"] += float64(cs.BytesFull)
		c["ck."+v+".delta_bytes"] += float64(cs.BytesDelta)
		c["ck."+v+".partial_bytes"] += float64(cs.BytesPartial)
		c["ck.fulls"] += float64(cs.Fulls)
		c["ck.deltas"] += float64(cs.Deltas)
		c["ck.full_bytes"] += float64(cs.BytesFull)
		c["ck.delta_bytes"] += float64(cs.BytesDelta)
		c["ck.pending"] += float64(cs.Pending)
	}
	// A variant's counters are the mean over the subjobs that use it.
	for v, n := range perVariant {
		for _, k := range []string{"taken", "pause_ms", "shipped", "encode_ms", "ship_ms", "bytes", "full_bytes", "delta_bytes", "partial_bytes"} {
			c["ck."+v+"."+k] /= n
		}
	}
	c["sink.dups"] = float64(sink.InputDups)
	c["q.dups"] = dups
	c["q.gaps"] = gaps
	c["q.retained"] = retained
	c["sj.backlog"] = backlog
	c["sim_cpu_ns"] = simCPU / float64(len(d.stages))
	return c
}
