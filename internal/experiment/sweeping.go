package experiment

import (
	"fmt"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/cluster"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// SweepingRow is one checkpointing variant's measurements.
type SweepingRow struct {
	Label string
	// Checkpoints is how many checkpoints were taken over the window.
	Checkpoints int
	// Elements is the checkpoint traffic in element units.
	Elements int64
	// Messages is the number of checkpoint messages.
	Messages int64
	// MeanPause is the average PE suspension per checkpoint.
	MeanPause time.Duration
}

// SweepingResult reproduces the Section III comparison: sweeping
// checkpointing against the synchronous and individual variants
// (the authors' earlier work reports sweeping ~4× faster with ~10% of the
// message overhead).
type SweepingResult struct {
	Window time.Duration
	Rows   []SweepingRow
}

// RunSweeping builds a one-subjob job by hand (so the checkpoint manager
// variant can be chosen directly) and measures checkpoint cost per
// variant.
func RunSweeping(p Params) (*SweepingResult, error) {
	p = p.withDefaults()
	if p.Run > 2*time.Second {
		p.Run = 2 * time.Second
	}
	interval := 10 * time.Millisecond
	res := &SweepingResult{Window: p.Run}

	variants := []struct {
		label string
		build func(cfg checkpoint.Config) *checkpoint.Core
	}{
		{"sweeping", checkpoint.NewSweeping},
		{"synchronous", checkpoint.NewSynchronous},
		{"individual", checkpoint.NewIndividual},
	}

	for _, v := range variants {
		cl := cluster.New(cluster.Config{Latency: p.Latency})
		srcM := cl.MustAddMachine("m-src")
		sinkM := cl.MustAddMachine("m-sink")
		priM := cl.MustAddMachine("p0")
		secM := cl.MustAddMachine("s0")

		// Small internal state, high rate and small batches make the queue
		// contributions to checkpoint size and pause time visible, as in
		// the workload of the authors' earlier study.
		spec := subjob.Spec{
			JobID:     "swp",
			ID:        "swp/sj0",
			InStreams: []string{"s0"},
			Owners:    map[string]string{"s0": cluster.SourceOwner},
			OutStream: "s1",
			BatchSize: 8,
			PEs: []subjob.PESpec{
				{Name: "pe0", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 4} }, Cost: 60 * time.Microsecond},
				{Name: "pe1", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 4} }, Cost: 60 * time.Microsecond},
			},
		}
		rt, err := subjob.New(spec, priM, false)
		if err != nil {
			cl.Close()
			return nil, err
		}
		rt.Start()

		src := cluster.NewSource(cluster.SourceConfig{
			Machine: srcM,
			Clock:   cl.Clock(),
			Stream:  "s0",
			Rate:    3000,
		})
		sink := cluster.NewSink(cluster.SinkConfig{
			Machine:     sinkM,
			Clock:       cl.Clock(),
			ID:          "swp/sink",
			InStreams:   []string{"s1"},
			Owners:      map[string]string{"s1": spec.ID},
			AckInterval: interval,
		})
		src.Out().Subscribe(priM.ID(), subjob.DataStream(spec.ID, "s0"), true)
		rt.Out().Subscribe(sinkM.ID(), subjob.DataStream(sink.ID(), "s1"), true)

		store := checkpoint.NewStore(secM, spec.ID, &checkpoint.Image{}, checkpoint.StoreOptions{})
		cm := v.build(checkpoint.Config{
			Runtime:   rt,
			Clock:     cl.Clock(),
			Interval:  interval,
			StoreNode: secM.ID(),
			Costs:     checkpoint.Costs{Base: 200 * time.Microsecond, PerUnit: 10 * time.Microsecond},
		})
		sink.Start()
		cm.Start()
		src.Start()

		time.Sleep(p.Warmup)
		before := cl.Stats()
		taken0 := cm.Taken()
		time.Sleep(p.Run)
		delta := cl.Stats().Sub(before)
		taken1, pause := cm.Taken(), cm.MeanPause()

		src.Stop()
		cm.Stop()
		sink.Stop()
		store.Close()
		rt.Stop()
		cl.Close()

		res.Rows = append(res.Rows, SweepingRow{
			Label:       v.label,
			Checkpoints: taken1 - taken0,
			Elements:    delta.Elements[transport.KindCheckpoint],
			Messages:    delta.Messages[transport.KindCheckpoint],
			MeanPause:   pause,
		})
	}
	return res, nil
}

// Table renders the result.
func (r *SweepingResult) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("Section III: sweeping vs synchronous vs individual checkpointing (%.1fs window)", r.Window.Seconds()),
		Note:   "paper claim (from the authors' earlier work): sweeping is ~4× faster with ~10% of the message overhead",
		Header: []string{"variant", "checkpoints", "ckpt-elems", "ckpt-msgs", "elems/ckpt", "mean-pause(ms)"},
	}
	for _, row := range r.Rows {
		per := int64(0)
		if row.Checkpoints > 0 {
			per = row.Elements / int64(row.Checkpoints)
		}
		t.Rows = append(t.Rows, []string{
			row.Label,
			fmt.Sprintf("%d", row.Checkpoints),
			fmt.Sprintf("%d", row.Elements),
			fmt.Sprintf("%d", row.Messages),
			fmt.Sprintf("%d", per),
			ms(row.MeanPause),
		})
	}
	return t
}
