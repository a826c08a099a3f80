package ha

import (
	"fmt"
	"slices"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/machine"
	"streamha/internal/queue"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// The paper's evaluation uses chain jobs and names tree-shaped topologies
// as future work. Topology generalizes the chain Pipeline to arbitrary
// DAGs: any subjob may consume the outputs of several producers (fan-in)
// and feed several consumers (fan-out), each with its own HA mode. The
// underlying queue protocol already supports both — an output queue trims
// only when every consumer acknowledged, and an input queue merges and
// deduplicates per upstream stream — so the builder's job is wiring and
// lifecycle construction.

// TopologySource declares one source node of a DAG job.
type TopologySource struct {
	// Name identifies the source within the job (e.g. "ticks").
	Name string
	// Machine hosts it.
	Machine string
	// Rate is the emission rate in elements per second.
	Rate float64
	// Burst shaping, as in SourceDef.
	BurstOn, BurstOff time.Duration
	BurstFactor       float64
}

// TopologySubjob declares one subjob node of a DAG job.
type TopologySubjob struct {
	// ID names the subjob within the job.
	ID string
	// Inputs lists the producers feeding it: subjob IDs or source names.
	Inputs []string
	// PEs is the subjob's pipeline.
	PEs []subjob.PESpec
	// Mode, Primary, Secondary, Spare as in SubjobDef.
	Mode      Mode
	Primary   string
	Secondary string
	Spare     string
	// BatchSize overrides the per-PE batch size.
	BatchSize int
}

// TopologySink declares one sink node of a DAG job.
type TopologySink struct {
	// Name identifies the sink within the job.
	Name string
	// Machine hosts it.
	Machine string
	// Inputs lists the subjob IDs it consumes.
	Inputs []string
	// TrackIDs retains per-ID delivery counts for verification.
	TrackIDs bool
}

// TopologyConfig deploys a DAG job.
type TopologyConfig struct {
	Cluster *cluster.Cluster
	JobID   string
	Sources []TopologySource
	Subjobs []TopologySubjob
	Sinks   []TopologySink
	// Hybrid, PS and Approx tune the HA policies, AckInterval the ackers
	// and sinks, as in PipelineConfig.
	Hybrid      core.Options
	PS          PSOptions
	Approx      core.ErrorBudget
	AckInterval time.Duration
	// Scheduler and RearmInterval enable scheduler-resolved placement and
	// automatic re-arm, as in PipelineConfig.
	Scheduler     *sched.Scheduler
	RearmInterval time.Duration
}

// Topology is a deployed DAG job.
type Topology struct {
	cfg     TopologyConfig
	sources map[string]*cluster.Source
	sinks   map[string]*cluster.Sink
	groups  map[string]*Group
	order   []string // subjobs in topological order
	placer  core.Placer
}

// NewTopology builds and wires the DAG; call Start to begin processing.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	if cfg.AckInterval <= 0 {
		if cfg.Hybrid.CheckpointInterval > 0 {
			cfg.AckInterval = cfg.Hybrid.CheckpointInterval
		} else {
			cfg.AckInterval = 10 * time.Millisecond
		}
	}
	t := &Topology{
		cfg:     cfg,
		sources: make(map[string]*cluster.Source),
		sinks:   make(map[string]*cluster.Sink),
		groups:  make(map[string]*Group),
	}
	cl := cfg.Cluster
	if cfg.Scheduler != nil {
		t.placer = newSchedPlacer(cl, cfg.Scheduler)
	}

	names := map[string]bool{}
	for _, s := range cfg.Sources {
		if names[s.Name] {
			return nil, fmt.Errorf("ha: duplicate node name %q", s.Name)
		}
		names[s.Name] = true
	}
	for _, sj := range cfg.Subjobs {
		if names[sj.ID] {
			return nil, fmt.Errorf("ha: duplicate node name %q", sj.ID)
		}
		names[sj.ID] = true
	}

	order, err := t.topoSort()
	if err != nil {
		return nil, err
	}
	t.order = order

	// Sources.
	for _, s := range cfg.Sources {
		m := cl.Machine(s.Machine)
		if m == nil {
			return nil, fmt.Errorf("ha: source %s: unknown machine %q", s.Name, s.Machine)
		}
		t.sources[s.Name] = cluster.NewSource(cluster.SourceConfig{
			Machine:     m,
			Clock:       cl.Clock(),
			Stream:      t.streamOf(s.Name),
			Rate:        s.Rate,
			BurstOn:     s.BurstOn,
			BurstOff:    s.BurstOff,
			BurstFactor: s.BurstFactor,
		})
	}

	// Sink machines and inputs, before any copy starts.
	sinkMs := make([]*machine.Machine, len(cfg.Sinks))
	for i, sk := range cfg.Sinks {
		if sinkMs[i] = cl.Machine(sk.Machine); sinkMs[i] == nil {
			return nil, fmt.Errorf("ha: sink %s: unknown machine %q", sk.Name, sk.Machine)
		}
		for _, in := range sk.Inputs {
			if !slices.Contains(order, in) {
				return nil, fmt.Errorf("ha: sink %s: unknown input %q", sk.Name, in)
			}
		}
	}

	// Subjob copies and lifecycles (phase A), in topological order. The
	// wiring closures resolve lazily, so forward references to groups not
	// yet built are safe; lifecycles are armed in Start. A failed build
	// stops every copy the groups before it started.
	for _, id := range order {
		def := t.subjobDef(id)
		g, err := t.buildGroup(def)
		if err != nil {
			for _, built := range t.groups {
				stopCopies(built)
			}
			return nil, err
		}
		t.groups[id] = g
	}

	// Sinks.
	for i, sk := range cfg.Sinks {
		streams := make([]string, 0, len(sk.Inputs))
		owners := make(map[string]string, len(sk.Inputs))
		for _, in := range sk.Inputs {
			st := t.streamOf(in)
			streams = append(streams, st)
			owners[st] = t.groups[in].Spec.ID
		}
		t.sinks[sk.Name] = cluster.NewSink(cluster.SinkConfig{
			Machine:     sinkMs[i],
			Clock:       cl.Clock(),
			ID:          cfg.JobID + "/" + sk.Name,
			InStreams:   streams,
			Owners:      owners,
			AckInterval: cfg.AckInterval,
			TrackIDs:    sk.TrackIDs,
		})
	}

	// Wiring (phase B): for every edge, subscribe every consumer copy to
	// every producer copy.
	for _, id := range order {
		def := t.subjobDef(id)
		g := t.groups[id]
		for _, in := range def.Inputs {
			for _, out := range t.producerOutputs(in) {
				for _, tgt := range g.ConsumerTargets(t.streamOf(in)) {
					out.Subscribe(tgt.Node, tgt.Stream, tgt.Active)
				}
			}
		}
	}
	for _, sk := range cfg.Sinks {
		sink := t.sinks[sk.Name]
		for _, in := range sk.Inputs {
			for _, out := range t.producerOutputs(in) {
				out.Subscribe(sink.Node(), subjob.DataStream(sink.ID(), t.streamOf(in)), true)
			}
		}
	}
	return t, nil
}

// streamOf names the logical output stream of a source or subjob node.
func (t *Topology) streamOf(node string) string { return t.cfg.JobID + "/out/" + node }

func (t *Topology) subjobDef(id string) TopologySubjob {
	for _, sj := range t.cfg.Subjobs {
		if sj.ID == id {
			return sj
		}
	}
	panic("ha: unknown subjob " + id)
}

// topoSort orders subjobs so producers precede consumers, rejecting cycles
// and unknown inputs.
func (t *Topology) topoSort() ([]string, error) {
	isSource := map[string]bool{}
	for _, s := range t.cfg.Sources {
		isSource[s.Name] = true
	}
	deps := map[string][]string{}
	for _, sj := range t.cfg.Subjobs {
		if len(sj.Inputs) == 0 {
			return nil, fmt.Errorf("ha: subjob %s has no inputs", sj.ID)
		}
		for _, in := range sj.Inputs {
			if isSource[in] {
				continue
			}
			found := false
			for _, other := range t.cfg.Subjobs {
				if other.ID == in {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("ha: subjob %s: unknown input %q", sj.ID, in)
			}
			deps[sj.ID] = append(deps[sj.ID], in)
		}
	}
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(id string) error
	visit = func(id string) error {
		switch state[id] {
		case 1:
			return fmt.Errorf("ha: topology cycle through %q", id)
		case 2:
			return nil
		}
		state[id] = 1
		for _, dep := range deps[id] {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[id] = 2
		order = append(order, id)
		return nil
	}
	for _, sj := range t.cfg.Subjobs {
		if err := visit(sj.ID); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// buildGroup mirrors Pipeline.buildGroup for a DAG node.
func (t *Topology) buildGroup(def TopologySubjob) (*Group, error) {
	cl := t.cfg.Cluster
	isSource := map[string]bool{}
	for _, s := range t.cfg.Sources {
		isSource[s.Name] = true
	}
	inStreams := make([]string, 0, len(def.Inputs))
	owners := make(map[string]string, len(def.Inputs))
	for _, in := range def.Inputs {
		st := t.streamOf(in)
		inStreams = append(inStreams, st)
		if isSource[in] {
			owners[st] = cluster.SourceOwner
		} else {
			owners[st] = t.cfg.JobID + "/" + in
		}
	}
	spec := subjob.Spec{
		JobID:     t.cfg.JobID,
		ID:        t.cfg.JobID + "/" + def.ID,
		InStreams: inStreams,
		Owners:    owners,
		OutStream: t.streamOf(def.ID),
		PEs:       def.PEs,
		BatchSize: def.BatchSize,
	}
	pol := policyFor(def.Mode, t.cfg.Hybrid, t.cfg.PS, t.cfg.Approx, t.cfg.AckInterval)
	priM, secM, spareM, err := resolvePlacement(cl, t.placer, placementReq{
		Subjob:       spec.ID,
		Primary:      def.Primary,
		Secondary:    def.Secondary,
		Spare:        def.Spare,
		NeedsStandby: pol.NeedsStandbyMachine(),
	})
	if err != nil {
		return nil, err
	}
	primary, secondary, err := startCopies(spec, pol, priM, secM, func(*subjob.Runtime) {})
	if err != nil {
		return nil, err
	}

	sjDef := SubjobDef{
		ID:        def.ID,
		PEs:       def.PEs,
		Mode:      def.Mode,
		Primary:   def.Primary,
		Secondary: def.Secondary,
		Spare:     def.Spare,
		BatchSize: def.BatchSize,
	}
	g := &Group{Def: sjDef, Spec: spec, Mode: def.Mode, Stage: -1, Part: -1}
	g.HA = core.NewLifecycle(core.LifecycleConfig{
		Spec:             spec,
		Clock:            cl.Clock(),
		Primary:          primary,
		Secondary:        secondary,
		SecondaryMachine: secM,
		SpareMachine:     spareM,
		Wiring:           t.wiringFor(def),
		Policy:           pol,
		Placer:           t.placer,
		RearmInterval:    t.cfg.RearmInterval,
	})
	return g, nil
}

// producerOutputs returns the live output queues of the node (source or
// subjob) named in.
func (t *Topology) producerOutputs(in string) []*queue.Output {
	if s, ok := t.sources[in]; ok {
		return []*queue.Output{s.Out()}
	}
	if g, ok := t.groups[in]; ok {
		return g.LiveOutputs()
	}
	return nil
}

// wiringFor builds the lifecycle wiring closures for a DAG node.
func (t *Topology) wiringFor(def TopologySubjob) core.Wiring {
	return core.Wiring{
		UpstreamOutputs: func() []*queue.Output {
			var outs []*queue.Output
			for _, in := range def.Inputs {
				outs = append(outs, t.producerOutputs(in)...)
			}
			return outs
		},
		DownstreamTargets: func() []core.Target {
			var targets []core.Target
			for _, sj := range t.cfg.Subjobs {
				for _, in := range sj.Inputs {
					if in == def.ID {
						targets = append(targets, t.groups[sj.ID].ConsumerTargets(t.streamOf(in))...)
					}
				}
			}
			for _, sk := range t.cfg.Sinks {
				for _, in := range sk.Inputs {
					if in == def.ID {
						sink := t.sinks[sk.Name]
						targets = append(targets, core.Target{
							Node:   sink.Node(),
							Stream: subjob.DataStream(sink.ID(), t.streamOf(in)),
							Active: true,
							Part:   -1,
						})
					}
				}
			}
			return targets
		},
	}
}

// Start launches sinks and HA lifecycles, then the sources.
func (t *Topology) Start() error {
	for _, sk := range t.sinks {
		sk.Start()
	}
	for _, id := range t.order {
		if err := t.groups[id].HA.Start(); err != nil {
			return err
		}
	}
	for _, s := range t.sources {
		s.Start()
	}
	return nil
}

// Stop halts everything: sources first, then lifecycles (which own the
// copies and their HA apparatus) and the sinks.
func (t *Topology) Stop() {
	for _, s := range t.sources {
		s.Stop()
	}
	for _, id := range t.order {
		t.groups[id].HA.Stop()
	}
	for _, sk := range t.sinks {
		sk.Stop()
	}
}

// Source returns the source named name, or nil.
func (t *Topology) Source(name string) *cluster.Source { return t.sources[name] }

// Sink returns the sink named name, or nil.
func (t *Topology) Sink(name string) *cluster.Sink { return t.sinks[name] }

// Group returns the deployed subjob named id, or nil.
func (t *Topology) Group(id string) *Group { return t.groups[id] }

// Order returns the subjobs in topological order.
func (t *Topology) Order() []string { return append([]string(nil), t.order...) }
