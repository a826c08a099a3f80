package ha

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/machine"
	"streamha/internal/metrics"
	"streamha/internal/queue"
	"streamha/internal/subjob"
)

// The paper's evaluation deploys chain jobs and names tree-shaped
// topologies as future work. Both builders deploy one job graph: sources
// feed subjob nodes, which feed further subjobs and sinks. Any subjob may
// consume several producers (fan-in) and feed several consumers (fan-out),
// each with its own HA mode. The queue protocol supports both — an output
// queue trims only when every consumer acknowledged, and an input queue
// merges and deduplicates per upstream stream — so building a job is
// naming, validation, group construction and wiring. NewPipeline turns a
// chain into this graph, NewTopology a DAG; everything below serves both.

// nodeKind says what a job-graph node deploys.
type nodeKind string

const (
	sourceNode nodeKind = "source"
	subjobNode nodeKind = "subjob"
	sinkNode   nodeKind = "sink"
)

// node is one vertex of the job graph.
type node struct {
	kind nodeKind
	// name is unique within the job; a subjob's spec IDs and a sink's ID
	// derive from it.
	name string
	// inputs names the producers feeding the node; build resolves them to in.
	inputs []string
	in     []*node
	// machine hosts a source or a sink.
	machine string

	source SourceDef // a source's rate and burst shape
	src    *cluster.Source

	def   SubjobDef // a subjob's PEs, mode, placement and parallelism
	stage int       // Group.Stage of the subjob's groups
	// split is a keyed subjob's input routing table; down is the table the
	// node's outputs publish through (its consumer's split), or nil.
	split, down *queue.Partitioner

	trackIDs bool // a sink's per-ID delivery counts
	sink     *cluster.Sink

	// stream is the base name of the node's output stream: "<job>/s<i>" for
	// the node at position i of the topological order. A keyed subjob's
	// instance k publishes on stream+".p<k>", so each producer keeps its own
	// sequence space and the downstream dedup stays per (stream, seq).
	stream string
	// streams lists the output stream of every instance, and groups every
	// deployed instance of a subjob; both guarded by job.mu, since ScaleOut
	// grows them.
	streams []string
	groups  []*Group
}

// suffix is ".p<k>" for instance k of a keyed subjob, else empty: instance
// k's spec ID and output stream append it to the node's.
func (n *node) suffix(k int) string {
	if n.def.partitioned() {
		return fmt.Sprintf(".p%d", k)
	}
	return ""
}

// job is a deployed job graph: the state both Pipeline and Topology wrap.
type job struct {
	cl          *cluster.Cluster
	id          string
	hybrid      core.Options
	ps          PSOptions
	approx      core.ErrorBudget
	ackInterval time.Duration
	rearm       time.Duration
	placer      core.Placer // nil without a scheduler

	// nodes holds the graph in topological order, byName by node name.
	nodes  []*node
	byName map[string]*node

	// mu guards every node's streams and groups, and reg.
	mu  sync.Mutex
	reg *metrics.Registry
}

// specID names instance k of subjob n, or sink n: "<job>/<name>", plus
// the keyed suffix.
func (j *job) specID(n *node, k int) string { return j.id + "/" + n.name + n.suffix(k) }

// build validates the graph, then deploys it: routing tables and stream
// names, sources and sinks, every subjob's groups, then the subscriptions
// between all of them. Bad input fails before any copy starts; a group that
// fails to build stops every copy the groups before it started.
func (j *job) build(nodes []*node) error {
	if j.ackInterval <= 0 {
		j.ackInterval = j.hybrid.CheckpointInterval
		if j.ackInterval <= 0 {
			j.ackInterval = 5 * time.Millisecond
		}
	}
	if err := j.resolve(nodes); err != nil {
		return err
	}
	for i, n := range j.nodes {
		n.stream = fmt.Sprintf("%s/s%d", j.id, i)
		for k := 0; n.kind != sinkNode && k < n.def.instances(); k++ {
			n.streams = append(n.streams, n.stream+n.suffix(k))
		}
		// One shared Partitioner per keyed subjob: every producer feeding it
		// routes through the same table and every HA copy of it guards with
		// it, so replicas agree on ownership even while a rescale is moving
		// partitions.
		if n.def.partitioned() {
			n.split = queue.NewPartitioner(queue.DefaultPartitions, n.def.instances())
			for _, in := range n.in {
				in.down = n.split
			}
		}
	}
	// Sources and sinks, whose machines must exist before any copy starts.
	for _, n := range j.nodes {
		if n.kind == subjobNode {
			continue
		}
		m := j.cl.Machine(n.machine)
		if m == nil {
			return fmt.Errorf("ha: unknown %s machine %q", n.kind, n.machine)
		}
		if n.kind == sinkNode {
			streams, owners := j.inputsOf(n)
			n.sink = cluster.NewSink(cluster.SinkConfig{
				Machine:     m,
				Clock:       j.cl.Clock(),
				ID:          j.specID(n, 0),
				InStreams:   streams,
				Owners:      owners,
				AckInterval: j.ackInterval,
				TrackIDs:    n.trackIDs,
			})
			continue
		}
		n.src = cluster.NewSource(cluster.SourceConfig{
			Machine:  m,
			Clock:    j.cl.Clock(),
			Stream:   n.stream,
			Rate:     n.source.Rate,
			Tick:     n.source.Tick,
			BurstOn:  n.source.BurstOn,
			BurstOff: n.source.BurstOff,
		})
		if n.down != nil {
			n.src.Out().SetPartitioner(n.down)
		}
	}

	// Copies (phase A): create every runtime before any wiring so that
	// standby-to-standby early connections can be created uniformly. The
	// lifecycles are constructed here too — their wiring closures resolve
	// lazily — but armed only in start.
	for _, n := range j.nodes {
		for k := 0; n.kind == subjobNode && k < n.def.instances(); k++ {
			g, err := j.buildGroup(n, k, n.def.placementOf(k), false)
			if err != nil {
				j.stop()
				return err
			}
			n.groups = append(n.groups, g)
		}
	}

	// Wiring (phase B): subscribe every consumer copy to every producer copy
	// feeding it, with activity per the consumer's HA state. Keyed consumers
	// subscribe with their partition-instance index so the producer's router
	// filters their feed.
	for _, n := range j.nodes {
		for _, out := range j.upstreamOf(n) {
			for _, t := range j.targets(n, out.StreamID) {
				out.SubscribePart(t.Node, t.Stream, t.Active, t.Part)
			}
		}
	}
	return nil
}

// resolve checks the graph's names and edges and stores it in j.nodes in
// topological order, producers before consumers and otherwise in the
// order given. Names are unique across sources, subjobs and sinks; a
// subjob's inputs name sources or subjobs, a sink's name subjobs; every
// subjob has an input; and no subjob feeds itself.
func (j *job) resolve(nodes []*node) error {
	j.byName = make(map[string]*node, len(nodes))
	for _, n := range nodes {
		if j.byName[n.name] != nil {
			return fmt.Errorf("ha: duplicate node name %q", n.name)
		}
		j.byName[n.name] = n
	}
	for _, n := range nodes {
		if n.kind == subjobNode && len(n.inputs) == 0 {
			return fmt.Errorf("ha: subjob %s has no inputs", n.name)
		}
		for _, name := range n.inputs {
			in := j.byName[name]
			if in == nil || in.kind == sinkNode || n.kind == sinkNode && in.kind == sourceNode {
				return fmt.Errorf("ha: %s %s: unknown input %q", n.kind, n.name, name)
			}
			n.in = append(n.in, in)
		}
	}
	state := make(map[*node]int, len(nodes)) // 0 unvisited, 1 visiting, 2 done
	var visit func(n *node) error
	visit = func(n *node) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("ha: topology cycle through %q", n.name)
		case 2:
			return nil
		}
		state[n] = 1
		for _, in := range n.in {
			if err := visit(in); err != nil {
				return err
			}
		}
		state[n] = 2
		j.nodes = append(j.nodes, n)
		return nil
	}
	for _, n := range nodes {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// inputsOf lists the streams feeding n, producer by producer, with the
// owner of each: the source, or the producing instance's spec ID.
func (j *job) inputsOf(n *node) ([]string, map[string]string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var streams []string
	owners := make(map[string]string)
	for _, in := range n.in {
		for k, st := range in.streams {
			streams = append(streams, st)
			owners[st] = cluster.SourceOwner
			if in.kind == subjobNode {
				owners[st] = j.specID(in, k)
			}
		}
	}
	return streams, owners
}

// buildGroup deploys instance k of subjob n on the machines pl names:
// spec, policy, placement, then the primary and the standby the policy
// pre-deploys, each plumbed into the node's routing tables before it
// starts, and the lifecycle that protects them, armed only by Start. A
// joining instance (ScaleOut's) starts suspended with no standby; its
// lifecycle deploys one when it starts.
func (j *job) buildGroup(n *node, k int, pl RescalePlacement, joining bool) (*Group, error) {
	in, owners := j.inputsOf(n)
	spec := subjob.Spec{
		JobID:     j.id,
		ID:        j.specID(n, k),
		InStreams: in,
		Owners:    owners,
		OutStream: n.stream + n.suffix(k),
		PEs:       n.def.PEs,
		BatchSize: n.def.BatchSize,
	}
	pol := policyFor(n.def.Mode, j.hybrid, j.ps, j.approx, j.ackInterval)
	var pri, sec *subjob.Runtime
	priM, secM, spareM, err := resolvePlacement(j.cl, j.placer, spec.ID, pl, pol.NeedsStandbyMachine())
	if err == nil {
		pri, sec, err = startCopies(spec, pol, priM, secM, joining, func(rt *subjob.Runtime) {
			if n.split != nil {
				rt.SetInputPartition(n.split, k)
			}
			if n.down != nil {
				rt.Out().SetPartitioner(n.down)
			}
		})
	}
	if err != nil {
		// No lifecycle will own what the placer committed so far (a primary
		// placed before the standby or spare check failed, or both copies'
		// hosts when a copy failed to start): hand it back here.
		if j.placer != nil {
			j.placer.Release(spec.ID)
		}
		return nil, err
	}
	part := -1
	if n.def.partitioned() {
		part = k
	}
	g := &Group{Def: n.def, Spec: spec, Mode: n.def.Mode, Stage: n.stage, Part: part}
	g.HA = core.NewLifecycle(core.LifecycleConfig{
		Spec:             spec,
		Clock:            j.cl.Clock(),
		Primary:          pri,
		Secondary:        sec,
		SecondaryMachine: secM,
		SpareMachine:     spareM,
		Wiring:           j.wiringFor(n, g),
		Policy:           pol,
		Placer:           j.placer,
		RearmInterval:    j.rearm,
	})
	return g, nil
}

// startCopies creates the primary on priM — suspended when joining — and,
// unless joining, the standby the policy pre-deploys on secM, and starts
// them only once both exist, each plumbed first, so an error leaves
// nothing running.
func startCopies(spec subjob.Spec, pol core.StandbyPolicy, priM, secM *machine.Machine, joining bool, plumb func(*subjob.Runtime)) (pri, sec *subjob.Runtime, err error) {
	if pri, err = subjob.New(spec, priM, joining); err != nil {
		return nil, nil, err
	}
	copies := []*subjob.Runtime{pri}
	if create, suspended := pol.PreDeploy(); create && !joining {
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

// resolvePlacement turns a group's machine names into machines. Named
// machines must exist — including the spare, whose absence would
// otherwise surface only as a silent nil at promotion time. Empty names
// are resolved through the placer when one is bound: the primary goes
// wherever capacity is, the standby anywhere outside the primary's fault
// domain. An empty spare stays nil — with a placer, promotion requests a
// replacement on demand.
func resolvePlacement(cl *cluster.Cluster, placer core.Placer, id string, pl RescalePlacement, needsStandby bool) (priM, secM, spareM *machine.Machine, err error) {
	if pl.Primary == "" && placer != nil {
		priM = placer.PlacePrimary(id, nil)
		if priM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: no schedulable capacity for primary", id)
		}
	} else {
		priM = cl.Machine(pl.Primary)
		if priM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown primary machine %q", id, pl.Primary)
		}
	}
	if pl.Secondary == "" && placer != nil && needsStandby {
		secM = placer.PlaceStandby(id, priM)
		if secM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: no schedulable capacity for standby outside the primary's fault domain", id)
		}
	} else {
		secM = cl.Machine(pl.Secondary)
		if needsStandby && secM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown secondary machine %q", id, pl.Secondary)
		}
	}
	if pl.Spare != "" {
		spareM = cl.Machine(pl.Spare)
		if spareM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown spare machine %q", id, pl.Spare)
		}
	}
	return priM, secM, spareM, nil
}

// groupsOf returns n's deployed instances in partition order.
func (j *job) groupsOf(n *node) []*Group {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*Group(nil), n.groups...)
}

// groups returns every group of every subjob in topological order.
func (j *job) groups() []*Group {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []*Group
	for _, n := range j.nodes {
		out = append(out, n.groups...)
	}
	return out
}

// upstreamOf returns the live output queues of every producer feeding n:
// a source's queue, or those of every live copy of every instance.
func (j *job) upstreamOf(n *node) []*queue.Output {
	var outs []*queue.Output
	for _, in := range n.in {
		if in.src != nil {
			outs = append(outs, in.src.Out())
		}
		for _, g := range j.groupsOf(in) {
			outs = append(outs, g.liveOutputs()...)
		}
	}
	return outs
}

// targets returns every copy of consumer n as a subscriber of stream: a
// sink, or each copy of each instance of a subjob.
func (j *job) targets(n *node, stream string) []core.Target {
	if n.sink != nil {
		return []core.Target{{Node: n.sink.Node(), Stream: subjob.DataStream(n.sink.ID(), stream), Active: true, Part: -1}}
	}
	var out []core.Target
	for _, g := range j.groupsOf(n) {
		out = append(out, g.consumerTargets(stream)...)
	}
	return out
}

// wiringFor builds the dynamic wiring closures for group g of subjob n.
func (j *job) wiringFor(n *node, g *Group) core.Wiring {
	return core.Wiring{
		UpstreamOutputs: func() []*queue.Output { return j.upstreamOf(n) },
		DownstreamTargets: func() []core.Target {
			var out []core.Target
			for _, c := range j.nodes {
				if slices.Contains(c.in, n) {
					out = append(out, j.targets(c, g.Spec.OutStream)...)
				}
			}
			return out
		},
		OutPartitioner: n.down,
		InPartitioner:  n.split,
		Part:           g.Part,
	}
}

// start launches sinks and HA lifecycles, then the sources — in that
// order, so no data is published before its consumers are wired. After an
// error, stop releases every copy, armed or not.
func (j *job) start() error {
	for _, n := range j.nodes {
		if n.sink != nil {
			n.sink.Start()
		}
	}
	for _, g := range j.groups() {
		if err := g.HA.Start(); err != nil {
			return err
		}
	}
	for _, n := range j.nodes {
		if n.src != nil {
			n.src.Start()
		}
	}
	return nil
}

// stop halts everything: sources first, then lifecycles (which own the
// copies and their HA apparatus, and release the group's scheduler slots)
// and the sinks. A lifecycle that never started — the job was not started,
// or start failed before reaching it — leaves its copies running, so stop
// stops each group's current copies too; after Lifecycle.Stop they are
// stopped already and this does nothing.
func (j *job) stop() {
	for _, n := range j.nodes {
		if n.src != nil {
			n.src.Stop()
		}
	}
	for _, g := range j.groups() {
		stopGroup(g)
	}
	for _, n := range j.nodes {
		if n.sink != nil {
			n.sink.Stop()
		}
	}
}

// stopGroup stops g's lifecycle, which hands its scheduler slots back, and
// its current copies, which a lifecycle that never started leaves running.
func stopGroup(g *Group) {
	g.HA.Stop()
	if sec := g.HA.SecondaryRuntime(); sec != nil {
		sec.Stop()
	}
	g.HA.PrimaryRuntime().Stop()
}
