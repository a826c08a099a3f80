package ha

import (
	"fmt"
	"sync"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/machine"
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
	// Partitions is the logical partition count of the stage's routing
	// table (default queue.DefaultPartitions); meaningful only with
	// Parallelism ≥ 1. Rescaling moves logical partitions between
	// instances, so Partitions bounds the granularity of rebalancing.
	Partitions int
	// Primaries, Secondaries and Spares place instance k on
	// Primaries[k] etc.; instances beyond the slice fall back to
	// Primary/Secondary/Spare. Meaningful only with Parallelism ≥ 1.
	Primaries   []string
	Secondaries []string
	Spares      []string
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

func pick(list []string, k int, fallback string) string {
	if k < len(list) && list[k] != "" {
		return list[k]
	}
	return fallback
}

func (d SubjobDef) primaryOf(k int) string   { return pick(d.Primaries, k, d.Primary) }
func (d SubjobDef) secondaryOf(k int) string { return pick(d.Secondaries, k, d.Secondary) }
func (d SubjobDef) spareOf(k int) string     { return pick(d.Spares, k, d.Spare) }

// SourceDef places and shapes the job's source.
type SourceDef struct {
	Machine     string
	Rate        float64
	Tick        time.Duration
	BurstOn     time.Duration
	BurstOff    time.Duration
	BurstFactor float64
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
	// (default: the hybrid checkpoint interval, seeding the sweep).
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

// LiveOutputs returns the output queues of every live copy of the group.
func (g *Group) LiveOutputs() []*queue.Output {
	outs := []*queue.Output{g.HA.PrimaryRuntime().Out()}
	if sec := g.HA.SecondaryRuntime(); sec != nil {
		outs = append(outs, sec.Out())
	}
	return outs
}

// ConsumerTargets returns every copy of the group as a consumer of its
// input stream, with the flag saying whether data should flow to it now:
// always to the primary, and to a standby copy only while it is running
// (an AS twin, or a hybrid standby that is currently switched over). A
// suspended standby's subscription stays inactive — that is the early
// connection. Part carries the group's partition-instance index so keyed
// producers filter the subscription to the keys the group serves.
func (g *Group) ConsumerTargets(logical string) []core.Target {
	stream := subjob.DataStream(g.Spec.ID, logical)
	out := []core.Target{{Node: g.HA.PrimaryRuntime().Node(), Stream: stream, Active: true, Part: g.Part}}
	if sec := g.HA.SecondaryRuntime(); sec != nil {
		out = append(out, core.Target{Node: sec.Node(), Stream: stream, Active: !sec.Suspended(), Part: g.Part})
	}
	return out
}

// PrimaryRuntime returns the group's current primary copy.
func (g *Group) PrimaryRuntime() *subjob.Runtime { return g.HA.PrimaryRuntime() }

// SecondaryRuntime returns the group's standby copy, or nil (AS returns
// its second copy; PS keeps state in a store, not a copy).
func (g *Group) SecondaryRuntime() *subjob.Runtime { return g.HA.SecondaryRuntime() }

// Pipeline is a deployed chain job.
type Pipeline struct {
	cfg    PipelineConfig
	source *cluster.Source
	sink   *cluster.Sink

	// mu guards stages and linkStreams, which live rescaling mutates.
	mu          sync.Mutex
	stages      [][]*Group
	linkStreams [][]string // linkStreams[i] feeds stage i; last entry feeds the sink
	linkSplit   []*queue.Partitioner
	reg         *metrics.Registry

	// placer adapts cfg.Scheduler for the lifecycles; nil without one.
	placer core.Placer
}

// defID resolves stage i's subjob name.
func (p *Pipeline) defID(i int) string {
	if id := p.cfg.Subjobs[i].ID; id != "" {
		return id
	}
	return fmt.Sprintf("sj%d", i)
}

// specID names stage i's instance k: "<job>/<def>" for a legacy stage,
// "<job>/<def>.p<k>" for a keyed-parallel one.
func (p *Pipeline) specID(i, k int) string {
	if p.cfg.Subjobs[i].partitioned() {
		return fmt.Sprintf("%s/%s.p%d", p.cfg.JobID, p.defID(i), k)
	}
	return p.cfg.JobID + "/" + p.defID(i)
}

// linkBase names link i's base stream ("<job>/s<i>"); partitioned
// producers append ".p<k>".
func (p *Pipeline) linkBase(i int) string {
	return fmt.Sprintf("%s/s%d", p.cfg.JobID, i)
}

// outStream names the output stream of stage i's instance k.
func (p *Pipeline) outStream(i, k int) string {
	if p.cfg.Subjobs[i].partitioned() {
		return fmt.Sprintf("%s.p%d", p.linkBase(i+1), k)
	}
	return p.linkBase(i + 1)
}

// ownersFor maps each stream of link i to its producing owner's ID.
func (p *Pipeline) ownersFor(i int) map[string]string {
	owners := make(map[string]string, len(p.linkStreams[i]))
	for k, st := range p.linkStreams[i] {
		if i == 0 {
			owners[st] = cluster.SourceOwner
		} else {
			owners[st] = p.specID(i-1, k)
		}
	}
	return owners
}

// downSplit returns the routing table stage i publishes through (the
// partitioner of the downstream link), or nil.
func (p *Pipeline) downSplit(i int) *queue.Partitioner {
	if i+1 < len(p.linkSplit) {
		return p.linkSplit[i+1]
	}
	return nil
}

// StagePartitioner returns stage i's input routing table, or nil for a
// legacy stage.
func (p *Pipeline) StagePartitioner(i int) *queue.Partitioner { return p.linkSplit[i] }

// NewPipeline builds and wires the job; call Start to begin processing.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if len(cfg.Subjobs) == 0 {
		return nil, fmt.Errorf("ha: pipeline needs at least one subjob")
	}
	if cfg.AckInterval <= 0 {
		if cfg.Hybrid.CheckpointInterval > 0 {
			cfg.AckInterval = cfg.Hybrid.CheckpointInterval
		} else {
			cfg.AckInterval = 5 * time.Millisecond
		}
	}
	p := &Pipeline{cfg: cfg}
	cl := cfg.Cluster
	if cfg.Scheduler != nil {
		p.placer = newSchedPlacer(cl, cfg.Scheduler)
	}

	// Routing tables: one shared Partitioner per keyed-parallel link. Every
	// producer of the link routes through the same table and every HA copy
	// of a consumer guards with it, so replicas agree on ownership even
	// while a rescale is moving partitions.
	p.linkSplit = make([]*queue.Partitioner, len(cfg.Subjobs))
	for i, def := range cfg.Subjobs {
		if def.partitioned() {
			p.linkSplit[i] = queue.NewPartitioner(def.Partitions, def.instances())
		}
	}

	// Stream names: link 0 is the source's stream; link i+1 carries stage
	// i's outputs — one stream per instance, so each producer keeps its own
	// sequence space and the downstream dedup stays per (stream, seq).
	p.linkStreams = make([][]string, len(cfg.Subjobs)+1)
	p.linkStreams[0] = []string{p.linkBase(0)}
	for i, def := range cfg.Subjobs {
		streams := make([]string, def.instances())
		for k := range streams {
			streams[k] = p.outStream(i, k)
		}
		p.linkStreams[i+1] = streams
	}

	// Source and sink machines first: a bad name fails before any copy
	// starts.
	srcM := cl.Machine(cfg.Source.Machine)
	if srcM == nil {
		return nil, fmt.Errorf("ha: unknown source machine %q", cfg.Source.Machine)
	}
	sinkM := cl.Machine(cfg.SinkMachine)
	if sinkM == nil {
		return nil, fmt.Errorf("ha: unknown sink machine %q", cfg.SinkMachine)
	}
	p.source = cluster.NewSource(cluster.SourceConfig{
		Machine:     srcM,
		Clock:       cl.Clock(),
		Stream:      p.linkStreams[0][0],
		Rate:        cfg.Source.Rate,
		Tick:        cfg.Source.Tick,
		BurstOn:     cfg.Source.BurstOn,
		BurstOff:    cfg.Source.BurstOff,
		BurstFactor: cfg.Source.BurstFactor,
	})
	if p.linkSplit[0] != nil {
		p.source.Out().SetPartitioner(p.linkSplit[0])
	}

	// Copies (phase A): create every runtime before any wiring so that
	// standby-to-standby early connections can be created uniformly. The
	// lifecycles are constructed here too — their wiring closures resolve
	// lazily — but armed only in Start. A failed build stops every copy
	// the groups before it started.
	p.stages = make([][]*Group, len(cfg.Subjobs))
	for i, def := range cfg.Subjobs {
		for k := 0; k < def.instances(); k++ {
			g, err := p.buildGroup(i, k, def)
			if err != nil {
				for _, st := range p.stages {
					stopCopies(st...)
				}
				return nil, err
			}
			p.stages[i] = append(p.stages[i], g)
		}
	}

	// Sink.
	lastLink := len(p.linkStreams) - 1
	p.sink = cluster.NewSink(cluster.SinkConfig{
		Machine:     sinkM,
		Clock:       cl.Clock(),
		ID:          cfg.JobID + "/sink",
		InStreams:   append([]string(nil), p.linkStreams[lastLink]...),
		Owners:      p.ownersFor(lastLink),
		AckInterval: cfg.AckInterval,
		TrackIDs:    cfg.TrackIDs,
	})

	// Wiring (phase B): subscribe every consumer copy of link i to every
	// producer copy of link i, with activity per the consumer's HA state.
	// Keyed consumers subscribe with their partition-instance index so the
	// producer's router filters their feed.
	for i := range p.stages {
		for _, out := range p.producerOutputs(i) {
			for _, g := range p.stages[i] {
				for _, t := range g.ConsumerTargets(out.StreamID) {
					out.SubscribePart(t.Node, t.Stream, t.Active, t.Part)
				}
			}
		}
	}
	for _, out := range p.producerOutputs(len(p.stages)) {
		out.SubscribePart(p.sink.Node(), subjob.DataStream(p.sink.ID(), out.StreamID), true, -1)
	}
	return p, nil
}

// buildGroup deploys stage i's instance k: primary (and policy-dictated
// standby) runtimes with partition plumbing installed before start, plus
// the lifecycle that protects them.
func (p *Pipeline) buildGroup(i, k int, def SubjobDef) (*Group, error) {
	cl := p.cfg.Cluster
	def.ID = p.defID(i)
	spec := subjob.Spec{
		JobID:     p.cfg.JobID,
		ID:        p.specID(i, k),
		InStreams: append([]string(nil), p.linkStreams[i]...),
		Owners:    p.ownersFor(i),
		OutStream: p.outStream(i, k),
		PEs:       def.PEs,
		BatchSize: def.BatchSize,
	}
	part := -1
	if def.partitioned() {
		part = k
	}
	split := p.linkSplit[i]
	down := p.downSplit(i)

	plumb := func(rt *subjob.Runtime) {
		if split != nil {
			rt.SetInputPartition(split, k)
		}
		if down != nil {
			rt.Out().SetPartitioner(down)
		}
	}

	pol := policyFor(def.Mode, p.cfg.Hybrid, p.cfg.PS, p.cfg.Approx, p.cfg.AckInterval)
	priM, secM, spareM, err := resolvePlacement(cl, p.placer, placementReq{
		Subjob:       spec.ID,
		Primary:      def.primaryOf(k),
		Secondary:    def.secondaryOf(k),
		Spare:        def.spareOf(k),
		NeedsStandby: pol.NeedsStandbyMachine(),
	})
	if err != nil {
		return nil, err
	}
	primary, secondary, err := startCopies(spec, pol, priM, secM, plumb)
	if err != nil {
		return nil, err
	}
	g := &Group{Def: def, Spec: spec, Mode: def.Mode, Stage: i, Part: part}
	p.protect(g, pol, primary, secondary, secM, spareM)
	return g, nil
}

// startCopies creates the primary on priM and, if the policy pre-deploys
// one, the standby on secM, and starts them only once both exist, each
// plumbed first, so an error leaves nothing running.
func startCopies(spec subjob.Spec, pol core.StandbyPolicy, priM, secM *machine.Machine, plumb func(*subjob.Runtime)) (pri, sec *subjob.Runtime, err error) {
	if pri, err = subjob.New(spec, priM, false); err != nil {
		return nil, nil, err
	}
	copies := []*subjob.Runtime{pri}
	if create, suspended := pol.PreDeploy(); create {
		if sec, err = subjob.New(spec, secM, suspended); err != nil {
			return nil, nil, err
		}
		copies = append(copies, sec)
	}
	for _, rt := range copies {
		plumb(rt)
		rt.Start()
	}
	return pri, sec, nil
}

// stopCopies stops the copies of groups whose lifecycles never started,
// which Lifecycle.Stop leaves alone.
func stopCopies(groups ...*Group) {
	for _, g := range groups {
		if sec := g.SecondaryRuntime(); sec != nil {
			sec.Stop()
		}
		g.PrimaryRuntime().Stop()
	}
}

// protect gives group g its lifecycle over pri and the pre-created standby
// sec (nil if the policy creates its own), with the pipeline's placer and
// re-arm period.
func (p *Pipeline) protect(g *Group, pol core.StandbyPolicy, pri, sec *subjob.Runtime, secM, spareM *machine.Machine) {
	g.HA = core.NewLifecycle(core.LifecycleConfig{
		Spec:             g.Spec,
		Clock:            p.cfg.Cluster.Clock(),
		Primary:          pri,
		Secondary:        sec,
		SecondaryMachine: secM,
		SpareMachine:     spareM,
		Wiring:           p.wiringFor(g.Stage, g),
		Policy:           pol,
		Placer:           p.placer,
		RearmInterval:    p.cfg.RearmInterval,
	})
}

// placementReq carries one group's machine names into resolvePlacement;
// empty names are placement requests when a placer is available.
type placementReq struct {
	Subjob       string
	Primary      string
	Secondary    string
	Spare        string
	NeedsStandby bool
}

// resolvePlacement turns a group's machine names into machines. Named
// machines must exist — including the spare, whose absence would
// otherwise surface only as a silent nil at promotion time. Empty names
// are resolved through the placer when one is bound: the primary goes
// wherever capacity is, the standby anywhere outside the primary's fault
// domain. An empty spare stays nil — with a placer, promotion requests a
// replacement on demand.
func resolvePlacement(cl *cluster.Cluster, placer core.Placer, req placementReq) (priM, secM, spareM *machine.Machine, err error) {
	if req.Primary == "" && placer != nil {
		priM = placer.PlacePrimary(req.Subjob, nil)
		if priM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: no schedulable capacity for primary", req.Subjob)
		}
	} else {
		priM = cl.Machine(req.Primary)
		if priM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown primary machine %q", req.Subjob, req.Primary)
		}
	}
	if req.Secondary == "" && placer != nil && req.NeedsStandby {
		secM = placer.PlaceStandby(req.Subjob, priM)
		if secM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: no schedulable capacity for standby outside the primary's fault domain", req.Subjob)
		}
	} else {
		secM = cl.Machine(req.Secondary)
		if req.NeedsStandby && secM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown secondary machine %q", req.Subjob, req.Secondary)
		}
	}
	if req.Spare != "" {
		spareM = cl.Machine(req.Spare)
		if spareM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown spare machine %q", req.Subjob, req.Spare)
		}
	}
	return priM, secM, spareM, nil
}

// producerOutputs returns the output queues feeding link i
// (i == len(stages) means the sink's input link).
func (p *Pipeline) producerOutputs(i int) []*queue.Output {
	if i == 0 {
		return []*queue.Output{p.source.Out()}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var outs []*queue.Output
	for _, g := range p.stages[i-1] {
		outs = append(outs, g.LiveOutputs()...)
	}
	return outs
}

// wiringFor builds the dynamic wiring closures for group g of stage i.
func (p *Pipeline) wiringFor(i int, g *Group) core.Wiring {
	return core.Wiring{
		UpstreamOutputs: func() []*queue.Output { return p.producerOutputs(i) },
		DownstreamTargets: func() []core.Target {
			p.mu.Lock()
			lastStage := i == len(p.stages)-1
			var consumers []*Group
			if !lastStage {
				consumers = append(consumers, p.stages[i+1]...)
			}
			p.mu.Unlock()
			if lastStage {
				return []core.Target{{
					Node:   p.sink.Node(),
					Stream: subjob.DataStream(p.sink.ID(), g.Spec.OutStream),
					Active: true,
					Part:   -1,
				}}
			}
			var targets []core.Target
			for _, cg := range consumers {
				targets = append(targets, cg.ConsumerTargets(g.Spec.OutStream)...)
			}
			return targets
		},
		OutPartitioner: p.downSplit(i),
		InPartitioner:  p.linkSplit[i],
		Part:           g.Part,
	}
}

// Start launches sink and HA lifecycles, then the source — in that order,
// so no data is published before its consumers are wired.
func (p *Pipeline) Start() error {
	p.sink.Start()
	for _, g := range p.AllGroups() {
		if err := g.HA.Start(); err != nil {
			return err
		}
	}
	p.source.Start()
	return nil
}

// Stop halts everything: source first, then lifecycles (which own the
// copies and their HA apparatus) and the sink.
func (p *Pipeline) Stop() {
	p.source.Stop()
	for _, g := range p.AllGroups() {
		g.HA.Stop()
	}
	p.sink.Stop()
}

// Source returns the job's source.
func (p *Pipeline) Source() *cluster.Source { return p.source }

// Sink returns the job's sink.
func (p *Pipeline) Sink() *cluster.Sink { return p.sink }

// Groups returns one group per stage in chain order: the sole group of a
// legacy stage, instance 0 of a keyed-parallel one. Use StageInstances for
// every instance.
func (p *Pipeline) Groups() []*Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Group, len(p.stages))
	for i, st := range p.stages {
		out[i] = st[0]
	}
	return out
}

// Group returns stage i's first instance.
func (p *Pipeline) Group(i int) *Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stages[i][0]
}

// StageInstances returns every instance of stage i in partition order.
func (p *Pipeline) StageInstances(i int) []*Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Group(nil), p.stages[i]...)
}

// AllGroups returns every group of every stage, stage-major.
func (p *Pipeline) AllGroups() []*Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Group
	for _, st := range p.stages {
		out = append(out, st...)
	}
	return out
}

// Streams returns the base link stream names, source stream first. A
// keyed-parallel stage's instances suffix ".p<k>" to their link's base
// name; LinkStreams returns the expanded per-instance list.
func (p *Pipeline) Streams() []string {
	out := make([]string, len(p.cfg.Subjobs)+1)
	for i := range out {
		out[i] = p.linkBase(i)
	}
	return out
}

// LinkStreams returns the stream names feeding link i
// (i == Stages() means the sink's input link).
func (p *Pipeline) LinkStreams(i int) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.linkStreams[i]...)
}

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
	reg.Register("transport", func() any { return p.cfg.Cluster.Stats() })
	reg.Register("source", func() any { return p.source.Stats() })
	p.sink.RegisterMetrics(reg)
	for i, split := range p.linkSplit {
		if split == nil {
			continue
		}
		s := split
		reg.Register("partition/"+p.linkBase(i), func() any { return s.Stats() })
	}
	p.mu.Lock()
	p.reg = reg
	p.mu.Unlock()
	for _, g := range p.AllGroups() {
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
	if dr, ok := lc.Policy().(core.DivergenceReporter); ok {
		reg.Register("subjob/"+id+"/divergence", func() any { return dr.Divergence() })
	}
}
