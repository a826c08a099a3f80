package ha

import (
	"fmt"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/metrics"
	"streamha/internal/queue"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// SubjobDef places one subjob of a chain job and selects its HA mode.
type SubjobDef struct {
	// ID names the subjob; empty selects "sj<i>".
	ID string
	// PEs is the subjob's pipeline.
	PEs []subjob.PESpec
	// Mode is the HA scheme.
	Mode Mode
	// Primary is the machine hosting the primary copy. Empty delegates the
	// choice to the pipeline's Scheduler (required then).
	Primary string
	// Secondary is the machine hosting the standby side (AS second copy,
	// PS store, hybrid standby). Required unless Mode is ModeNone or a
	// Scheduler resolves it — a scheduled standby never lands on the
	// primary's machine or anywhere in its fault domain.
	Secondary string
	// Spare optionally hosts the hybrid's replacement standby after a
	// fail-stop promotion. A non-empty name must exist in the cluster.
	// With a Scheduler, leaving it empty lets promotion ask for a host on
	// demand instead of pinning one up front.
	Spare string
	// BatchSize overrides the per-PE batch size.
	BatchSize int

	// Parallelism enables keyed parallelism: n ≥ 1 deploys n partition
	// instances of the stage, each a full HA group (own lifecycle, standby
	// and checkpoints), with upstream elements fanned out by a stable hash
	// of Element.Key over the stage's partition table. 0 selects the legacy
	// single unpartitioned instance (no routing table, no input guard).
	Parallelism int
	// Primaries and Secondaries place instance k on Primaries[k] and
	// Secondaries[k]; instances beyond a slice fall back to Primary or
	// Secondary. Every instance shares Spare. Meaningful only with
	// Parallelism ≥ 1.
	Primaries   []string
	Secondaries []string
}

// partitioned reports whether the stage uses the keyed-parallel path.
func (d SubjobDef) partitioned() bool { return d.Parallelism >= 1 }

// instances is the stage's initial instance count.
func (d SubjobDef) instances() int {
	if d.Parallelism >= 1 {
		return d.Parallelism
	}
	return 1
}

// placementOf places instance k: Primaries[k] and Secondaries[k], or
// Primary and Secondary beyond the slices, and Spare.
func (d SubjobDef) placementOf(k int) RescalePlacement {
	pick := func(list []string, fallback string) string {
		if k < len(list) && list[k] != "" {
			return list[k]
		}
		return fallback
	}
	return RescalePlacement{
		Primary:   pick(d.Primaries, d.Primary),
		Secondary: pick(d.Secondaries, d.Secondary),
		Spare:     d.Spare,
	}
}

// SourceDef places and shapes the job's source.
type SourceDef struct {
	Machine  string
	Rate     float64
	Tick     time.Duration
	BurstOn  time.Duration
	BurstOff time.Duration
}

// PipelineConfig deploys a chain job (the paper's 8-PE / 4-subjob
// experimental topology, generalized).
type PipelineConfig struct {
	// Cluster supplies machines, network and clock.
	Cluster *cluster.Cluster
	// JobID names the job; stream and subjob names derive from it.
	JobID string
	// Source feeds the first subjob.
	Source SourceDef
	// SinkMachine hosts the measuring sink.
	SinkMachine string
	// Subjobs is the chain, upstream to downstream.
	Subjobs []SubjobDef
	// Hybrid tunes hybrid-mode subjobs (intervals, costs, ablations); it
	// also tunes approx-mode subjobs, which share the hybrid machinery.
	Hybrid core.Options
	// PS tunes passive-standby subjobs.
	PS PSOptions
	// Approx is the error budget of approx-mode subjobs: how many
	// in-flight elements a budgeted failover may skip instead of
	// replaying, and how stale the promoted standby may be. The zero
	// budget degenerates approx to exact hybrid behavior.
	Approx core.ErrorBudget
	// AckInterval drives the ackers of NONE/AS copies and the sink
	// (default: Hybrid.CheckpointInterval when set, else 5 ms).
	AckInterval time.Duration
	// TrackIDs makes the sink retain per-ID delivery counts for
	// exactly-once verification in tests.
	TrackIDs bool
	// Scheduler, when set, resolves placement requests (empty Primary /
	// Secondary / Spare fields) against the cluster's schedulable pool and
	// keeps every lifecycle re-armable: after a promotion or standby-machine
	// death the lifecycle asks it for a fresh host instead of settling
	// unprotected.
	Scheduler *sched.Scheduler
	// RearmInterval is the lifecycles' re-arm health-check period
	// (default 100ms); meaningful only with a Scheduler.
	RearmInterval time.Duration
}

// Group is one deployed subjob instance with its HA lifecycle. A legacy
// stage has exactly one group; a keyed-parallel stage has one group per
// partition instance.
type Group struct {
	Def  SubjobDef
	Spec subjob.Spec
	Mode Mode

	// Stage is the group's stage index in the chain.
	Stage int
	// Part is the group's partition-instance index within its stage, or
	// -1 for a legacy unpartitioned stage.
	Part int

	// HA is the subjob's lifecycle engine: one state machine regardless of
	// mode, with the mode plugged in as its StandbyPolicy.
	HA *core.Lifecycle
}

// liveOutputs returns the output queues of every live copy of the group.
func (g *Group) liveOutputs() []*queue.Output {
	outs := []*queue.Output{g.HA.PrimaryRuntime().Out()}
	if sec := g.HA.SecondaryRuntime(); sec != nil {
		outs = append(outs, sec.Out())
	}
	return outs
}

// consumerTargets returns every copy of the group as a consumer of its
// input stream, with the flag saying whether data should flow to it now:
// always to the primary, and to a standby copy only while it is running
// (an AS twin, or a hybrid standby that is currently switched over). A
// suspended standby's subscription stays inactive — that is the early
// connection. Part carries the group's partition-instance index so keyed
// producers filter the subscription to the keys the group serves.
func (g *Group) consumerTargets(logical string) []core.Target {
	stream := subjob.DataStream(g.Spec.ID, logical)
	out := []core.Target{{Node: g.HA.PrimaryRuntime().Node(), Stream: stream, Active: true, Part: g.Part}}
	if sec := g.HA.SecondaryRuntime(); sec != nil {
		out = append(out, core.Target{Node: sec.Node(), Stream: stream, Active: !sec.Suspended(), Part: g.Part})
	}
	return out
}

// Pipeline is a deployed chain job: a job graph whose nodes are the
// source, the stages in chain order, then the sink.
type Pipeline struct {
	j *job
}

// stage returns stage i's node.
func (p *Pipeline) stage(i int) *node { return p.j.nodes[i+1] }

// StagePartitioner returns stage i's input routing table, or nil for a
// legacy stage.
func (p *Pipeline) StagePartitioner(i int) *queue.Partitioner { return p.stage(i).split }

// NewPipeline builds and wires the job; call Start to begin processing.
// Stage i is named by its SubjobDef.ID ("sj<i>" when empty) and reads link
// i; link 0 is the source's stream and link i+1 carries stage i's outputs.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if len(cfg.Subjobs) == 0 {
		return nil, fmt.Errorf("ha: pipeline needs at least one subjob")
	}
	nodes := []*node{{kind: sourceNode, machine: cfg.Source.Machine, source: cfg.Source}}
	prev := ""
	for i, def := range cfg.Subjobs {
		if def.ID == "" {
			def.ID = fmt.Sprintf("sj%d", i)
		}
		nodes = append(nodes, &node{kind: subjobNode, name: def.ID, inputs: []string{prev}, def: def, stage: i})
		prev = def.ID
	}
	nodes = append(nodes, &node{kind: sinkNode, name: "sink", inputs: []string{prev}, machine: cfg.SinkMachine, trackIDs: cfg.TrackIDs})
	j := &job{
		cl:          cfg.Cluster,
		id:          cfg.JobID,
		hybrid:      cfg.Hybrid,
		ps:          cfg.PS,
		approx:      cfg.Approx,
		ackInterval: cfg.AckInterval,
		rearm:       cfg.RearmInterval,
		placer:      newSchedPlacer(cfg.Cluster, cfg.Scheduler),
	}
	if err := j.build(nodes); err != nil {
		return nil, err
	}
	return &Pipeline{j: j}, nil
}

// Start launches sink and HA lifecycles, then the source — in that order,
// so no data is published before its consumers are wired. After an error,
// Stop releases the job.
func (p *Pipeline) Start() error { return p.j.start() }

// Stop halts everything: source first, then lifecycles (which own the
// copies and their HA apparatus) and the sink. A pipeline built but never
// started is released too.
func (p *Pipeline) Stop() { p.j.stop() }

// Source returns the job's source.
func (p *Pipeline) Source() *cluster.Source { return p.j.nodes[0].src }

// Sink returns the job's sink.
func (p *Pipeline) Sink() *cluster.Sink { return p.j.nodes[len(p.j.nodes)-1].sink }

// Groups returns one group per stage in chain order: the sole group of a
// legacy stage, instance 0 of a keyed-parallel one. AllGroups returns
// every instance.
func (p *Pipeline) Groups() []*Group {
	out := make([]*Group, len(p.j.nodes)-2)
	for i := range out {
		out[i] = p.Group(i)
	}
	return out
}

// Group returns stage i's first instance.
func (p *Pipeline) Group(i int) *Group { return p.j.groupsOf(p.stage(i))[0] }

// AllGroups returns every group of every stage, stage-major.
func (p *Pipeline) AllGroups() []*Group { return p.j.groups() }

// RegisterMetrics registers every component of the pipeline in reg:
// transport traffic, source and sink state, and — per group — the current
// primary/standby runtimes plus the lifecycle (state, transition log),
// detector, checkpoint manager and store. Sources are closures that
// resolve the group's *current* components at snapshot time, so the
// registry keeps tracking across switchover, rollback and migration.
// Keyed-parallel instances register under their ".p<k>" spec IDs, giving
// per-partition delay, queue-depth and checkpoint series; groups added by
// a later ScaleOut self-register in the same registry.
func (p *Pipeline) RegisterMetrics(reg *metrics.Registry) {
	j := p.j
	reg.Register("transport", func() any { return j.cl.Stats() })
	reg.Register("source", func() any { return p.Source().Stats() })
	p.Sink().RegisterMetrics(reg)
	for _, n := range j.nodes {
		if s := n.split; s != nil {
			reg.Register("partition/"+n.in[0].stream, func() any { return s.Stats() })
		}
	}
	j.mu.Lock()
	j.reg = reg
	j.mu.Unlock()
	for _, g := range j.groups() {
		registerGroupMetrics(reg, g)
	}
}

// registerGroupMetrics registers one group's components; shared by the
// chain and DAG builders. Every mode gets the same set — sources resolve
// nil components (a NONE subjob's detector, an AS subjob's checkpoint
// manager) to null at snapshot time.
func registerGroupMetrics(reg *metrics.Registry, g *Group) {
	id := g.Spec.ID
	lc := g.HA
	reg.Register("subjob/"+id+"/primary", func() any {
		return lc.PrimaryRuntime().Stats()
	})
	reg.Register("subjob/"+id+"/standby", func() any {
		sec := lc.SecondaryRuntime()
		if sec == nil {
			return nil
		}
		return sec.Stats()
	})
	reg.Register("ha/"+id, func() any { return lc.Stats() })
	reg.Register("detector/"+id, func() any {
		det := lc.Detector()
		if det == nil {
			return nil
		}
		return det.Stats()
	})
	reg.Register("checkpoint/"+id, func() any {
		if cm := lc.Checkpoint(); cm != nil {
			return cm.Stats()
		}
		return nil
	})
	reg.Register("store/"+id, func() any {
		if st := lc.Store(); st != nil {
			return st.Stats()
		}
		return nil
	})
	if dr, ok := lc.Policy().(*core.ApproxPolicy); ok {
		reg.Register("subjob/"+id+"/divergence", func() any { return dr.Divergence() })
	}
}
