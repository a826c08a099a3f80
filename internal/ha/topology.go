package ha

import (
	"streamha/internal/cluster"
	"streamha/internal/subjob"
)

// TopologySource declares one source node of a DAG job.
type TopologySource struct {
	// Name identifies the source within the job (e.g. "ticks").
	Name string
	// Machine hosts it.
	Machine string
	// Rate is the emission rate in elements per second.
	Rate float64
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

// TopologyConfig deploys a DAG job. Its HA policies run with their
// default tuning on static placement.
type TopologyConfig struct {
	Cluster *cluster.Cluster
	JobID   string
	Sources []TopologySource
	Subjobs []TopologySubjob
	Sinks   []TopologySink
}

// Topology is a deployed DAG job.
type Topology struct {
	j *job
}

// NewTopology builds and wires the DAG; call Start to begin processing.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	var nodes []*node
	for _, s := range cfg.Sources {
		nodes = append(nodes, &node{kind: sourceNode, name: s.Name, machine: s.Machine,
			source: SourceDef{Rate: s.Rate}})
	}
	for _, sj := range cfg.Subjobs {
		nodes = append(nodes, &node{kind: subjobNode, name: sj.ID, inputs: sj.Inputs, stage: -1, def: SubjobDef{
			ID:        sj.ID,
			PEs:       sj.PEs,
			Mode:      sj.Mode,
			Primary:   sj.Primary,
			Secondary: sj.Secondary,
			Spare:     sj.Spare,
			BatchSize: sj.BatchSize,
		}})
	}
	for _, sk := range cfg.Sinks {
		nodes = append(nodes, &node{kind: sinkNode, name: sk.Name, inputs: sk.Inputs, machine: sk.Machine, trackIDs: sk.TrackIDs})
	}
	j := &job{
		cl:     cfg.Cluster,
		id:     cfg.JobID,
		placer: newSchedPlacer(cfg.Cluster, nil),
	}
	if err := j.build(nodes); err != nil {
		return nil, err
	}
	return &Topology{j: j}, nil
}

// Start launches sinks and HA lifecycles, then the sources. After an
// error, Stop releases the job.
func (t *Topology) Start() error { return t.j.start() }

// Stop halts everything: sources first, then lifecycles (which own the
// copies and their HA apparatus) and the sinks. A topology built but never
// started is released too.
func (t *Topology) Stop() { t.j.stop() }

// Source returns the source named name, or nil.
func (t *Topology) Source(name string) *cluster.Source {
	if n := t.j.byName[name]; n != nil {
		return n.src
	}
	return nil
}

// Sink returns the sink named name, or nil.
func (t *Topology) Sink(name string) *cluster.Sink {
	if n := t.j.byName[name]; n != nil {
		return n.sink
	}
	return nil
}

// Group returns the deployed subjob named id, or nil.
func (t *Topology) Group(id string) *Group {
	if n := t.j.byName[id]; n != nil && n.kind == subjobNode {
		return t.j.groupsOf(n)[0]
	}
	return nil
}
