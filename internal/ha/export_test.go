package ha

import (
	"streamha/internal/core"
	"streamha/internal/queue"
	"streamha/internal/subjob"
)

// LiveOutputs returns the output queues of every live copy of the group.
func (g *Group) LiveOutputs() []*queue.Output { return g.liveOutputs() }

// ConsumerTargets returns every copy of the group as a consumer of its
// input stream.
func (g *Group) ConsumerTargets(logical string) []core.Target { return g.consumerTargets(logical) }

// PrimaryRuntime returns the group's current primary copy.
func (g *Group) PrimaryRuntime() *subjob.Runtime { return g.HA.PrimaryRuntime() }

// SecondaryRuntime returns the group's standby copy, or nil.
func (g *Group) SecondaryRuntime() *subjob.Runtime { return g.HA.SecondaryRuntime() }

// StageInstances returns every instance of stage i in partition order.
func (p *Pipeline) StageInstances(i int) []*Group { return p.j.groupsOf(p.stage(i)) }

// Streams returns the base link stream names, source stream first. A
// keyed-parallel stage's instances suffix ".p<k>" to their link's base
// name; LinkStreams returns the expanded per-instance list.
func (p *Pipeline) Streams() []string {
	out := make([]string, len(p.j.nodes)-1)
	for i := range out {
		out[i] = p.j.nodes[i].stream
	}
	return out
}

// LinkStreams returns the stream names feeding link i
// (i == Stages() means the sink's input link).
func (p *Pipeline) LinkStreams(i int) []string {
	p.j.mu.Lock()
	defer p.j.mu.Unlock()
	return append([]string(nil), p.j.nodes[i].streams...)
}

// Order returns the subjobs in topological order.
func (t *Topology) Order() []string {
	var out []string
	for _, n := range t.j.nodes {
		if n.kind == subjobNode {
			out = append(out, n.name)
		}
	}
	return out
}
