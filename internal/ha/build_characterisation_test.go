package ha_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/ha"
	"streamha/internal/metrics"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// The tests in this file pin what the job builders produce before anything
// starts: every group's spec, stage and partition index, the copies it
// exposes as consumers, and the subscriptions and ack positions of every
// output queue. A change to naming or wiring shows up here as a changed
// line first.

// describeGroup writes a group's spec, stage, partition index and the
// consumer targets it offers for each of its input streams.
func describeGroup(b *strings.Builder, g *ha.Group) {
	owners := make([]string, 0, len(g.Spec.Owners))
	for st, o := range g.Spec.Owners {
		owners = append(owners, st+"="+o)
	}
	sort.Strings(owners)
	fmt.Fprintf(b, "group %s stage=%d part=%d in=%v owners=%v out=%s\n",
		g.Spec.ID, g.Stage, g.Part, g.Spec.InStreams, owners, g.Spec.OutStream)
	for _, in := range g.Spec.InStreams {
		for _, t := range g.ConsumerTargets(in) {
			fmt.Fprintf(b, "  target %s %s active=%v part=%d\n", t.Node, t.Stream, t.Active, t.Part)
		}
	}
}

// describeOutputs writes each queue's subscriber counts and the ack
// position it holds for every consumer node.
func describeOutputs(b *strings.Builder, outs []*queue.Output, consumers []transport.NodeID) {
	for _, out := range outs {
		st := out.Stats()
		fmt.Fprintf(b, "  output %s subs=%d active=%d", st.Stream, st.Subscribers, st.ActiveSubscribers)
		for _, n := range consumers {
			seq, ok := out.AckedBy(n)
			fmt.Fprintf(b, " acked[%s]=%d/%v", n, seq, ok)
		}
		b.WriteString("\n")
	}
}

// describeChain writes everything a built, unstarted chain exposes.
func describeChain(p *ha.Pipeline, stages int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "streams %v\n", p.Streams())
	for i := 0; i <= stages; i++ {
		fmt.Fprintf(&b, "link %d %v\n", i, p.LinkStreams(i))
	}
	fmt.Fprintf(&b, "sink %s on %s\n", p.Sink().ID(), p.Sink().Node())
	consumers := func(i int) []transport.NodeID {
		if i == stages {
			return []transport.NodeID{p.Sink().Node()}
		}
		var nodes []transport.NodeID
		for _, g := range p.StageInstances(i) {
			for _, t := range g.ConsumerTargets("x") {
				nodes = append(nodes, t.Node)
			}
		}
		return nodes
	}
	b.WriteString("source\n")
	describeOutputs(&b, []*queue.Output{p.Source().Out()}, consumers(0))
	for i := 0; i < stages; i++ {
		for _, g := range p.StageInstances(i) {
			describeGroup(&b, g)
			describeOutputs(&b, g.LiveOutputs(), consumers(i+1))
		}
	}
	reg := metrics.NewRegistry()
	p.RegisterMetrics(reg)
	names := reg.Names()
	sort.Strings(names)
	for _, n := range names {
		if strings.HasPrefix(n, "partition/") {
			fmt.Fprintf(&b, "metric %s\n", n)
		}
	}
	return b.String()
}

// buildUnstarted builds a chain on a fresh cluster holding machines and
// stops it at cleanup without having started it.
func buildUnstarted(t *testing.T, machines []string, cfg ha.PipelineConfig) *ha.Pipeline {
	t.Helper()
	cl := cluster.New(cluster.Config{Latency: 100 * time.Microsecond})
	for _, m := range machines {
		cl.MustAddMachine(m)
	}
	cfg.Cluster = cl
	p, err := ha.NewPipeline(cfg)
	if err != nil {
		cl.Close()
		t.Fatalf("NewPipeline: %v", err)
	}
	t.Cleanup(func() {
		p.Stop()
		cl.Close()
	})
	return p
}

func diffLines(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s\nfull dump:\n%s", i+1, gl, wl, got)
		}
	}
}

func TestBuildCharacterisationChain(t *testing.T) {
	p := buildUnstarted(t, []string{"src", "sink", "p0", "p1", "p2", "p3", "s1", "s2", "s3"}, ha.PipelineConfig{
		JobID:       "chain",
		Source:      ha.SourceDef{Machine: "src", Rate: 100},
		SinkMachine: "sink",
		Subjobs: []ha.SubjobDef{
			{PEs: cheapPEs(1), Mode: ha.ModeNone, Primary: "p0"},
			{PEs: cheapPEs(1), Mode: ha.ModeActive, Primary: "p1", Secondary: "s1"},
			{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p2", Secondary: "s2"},
			{PEs: cheapPEs(1), Mode: ha.ModePassive, Primary: "p3", Secondary: "s3"},
		},
	})
	want := `streams [chain/s0 chain/s1 chain/s2 chain/s3 chain/s4]
link 0 [chain/s0]
link 1 [chain/s1]
link 2 [chain/s2]
link 3 [chain/s3]
link 4 [chain/s4]
sink chain/sink on sink
source
  output chain/s0 subs=1 active=1 acked[p0]=0/true
group chain/sj0 stage=0 part=-1 in=[chain/s0] owners=[chain/s0=source] out=chain/s1
  target p0 data|chain/sj0|chain/s0 active=true part=-1
  output chain/s1 subs=2 active=2 acked[p1]=0/true acked[s1]=0/true
group chain/sj1 stage=1 part=-1 in=[chain/s1] owners=[chain/s1=chain/sj0] out=chain/s2
  target p1 data|chain/sj1|chain/s1 active=true part=-1
  target s1 data|chain/sj1|chain/s1 active=true part=-1
  output chain/s2 subs=2 active=1 acked[p2]=0/true acked[s2]=0/true
  output chain/s2 subs=2 active=1 acked[p2]=0/true acked[s2]=0/true
group chain/sj2 stage=2 part=-1 in=[chain/s2] owners=[chain/s2=chain/sj1] out=chain/s3
  target p2 data|chain/sj2|chain/s2 active=true part=-1
  target s2 data|chain/sj2|chain/s2 active=false part=-1
  output chain/s3 subs=1 active=1 acked[p3]=0/true
  output chain/s3 subs=1 active=1 acked[p3]=0/true
group chain/sj3 stage=3 part=-1 in=[chain/s3] owners=[chain/s3=chain/sj2] out=chain/s4
  target p3 data|chain/sj3|chain/s3 active=true part=-1
  output chain/s4 subs=1 active=1 acked[sink]=0/true
`
	diffLines(t, describeChain(p, 4), want)
}

func TestBuildCharacterisationKeyedChain(t *testing.T) {
	p := buildUnstarted(t, []string{"src", "sink", "p0", "s0", "k0", "k1", "t0", "t1"}, ha.PipelineConfig{
		JobID:       "keyed",
		Source:      ha.SourceDef{Machine: "src", Rate: 100},
		SinkMachine: "sink",
		Subjobs: []ha.SubjobDef{
			{PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "p0", Secondary: "s0"},
			{ID: "agg", PEs: cheapPEs(1), Mode: ha.ModeHybrid, Parallelism: 2,
				Primaries: []string{"k0", "k1"}, Secondaries: []string{"t0", "t1"}},
		},
	})
	want := `streams [keyed/s0 keyed/s1 keyed/s2]
link 0 [keyed/s0]
link 1 [keyed/s1]
link 2 [keyed/s2.p0 keyed/s2.p1]
sink keyed/sink on sink
source
  output keyed/s0 subs=2 active=1 acked[p0]=0/true acked[s0]=0/true
group keyed/sj0 stage=0 part=-1 in=[keyed/s0] owners=[keyed/s0=source] out=keyed/s1
  target p0 data|keyed/sj0|keyed/s0 active=true part=-1
  target s0 data|keyed/sj0|keyed/s0 active=false part=-1
  output keyed/s1 subs=4 active=2 acked[k0]=0/true acked[t0]=0/true acked[k1]=0/true acked[t1]=0/true
  output keyed/s1 subs=4 active=2 acked[k0]=0/true acked[t0]=0/true acked[k1]=0/true acked[t1]=0/true
group keyed/agg.p0 stage=1 part=0 in=[keyed/s1] owners=[keyed/s1=keyed/sj0] out=keyed/s2.p0
  target k0 data|keyed/agg.p0|keyed/s1 active=true part=0
  target t0 data|keyed/agg.p0|keyed/s1 active=false part=0
  output keyed/s2.p0 subs=1 active=1 acked[sink]=0/true
  output keyed/s2.p0 subs=1 active=1 acked[sink]=0/true
group keyed/agg.p1 stage=1 part=1 in=[keyed/s1] owners=[keyed/s1=keyed/sj0] out=keyed/s2.p1
  target k1 data|keyed/agg.p1|keyed/s1 active=true part=1
  target t1 data|keyed/agg.p1|keyed/s1 active=false part=1
  output keyed/s2.p1 subs=1 active=1 acked[sink]=0/true
  output keyed/s2.p1 subs=1 active=1 acked[sink]=0/true
metric partition/keyed/s1
`
	diffLines(t, describeChain(p, 2), want)
	if p.StagePartitioner(0) != nil || p.StagePartitioner(1) == nil {
		t.Fatalf("partitioners: stage 0 %v, stage 1 %v", p.StagePartitioner(0), p.StagePartitioner(1))
	}
	if d := p.Group(1).Def; d.ID != "agg" || p.Group(0).Def.ID != "sj0" {
		t.Fatalf("group defs name %q and %q", p.Group(0).Def.ID, d.ID)
	}
}

// TestBuildCharacterisationDiamond pins the DAG builder by structure, not
// by stream names: each consumer reads exactly its producers' output
// streams, in input order, owned by the producers' spec IDs, and every
// producer copy's output is subscribed by every consumer copy.
func TestBuildCharacterisationDiamond(t *testing.T) {
	cl := cluster.New(cluster.Config{Latency: 100 * time.Microsecond})
	for _, id := range []string{"m-src", "m-sink", "m-split", "m-a", "m-a2", "m-b", "m-merge"} {
		cl.MustAddMachine(id)
	}
	topo, err := ha.NewTopology(ha.TopologyConfig{
		Cluster: cl,
		JobID:   "dag",
		Sources: []ha.TopologySource{{Name: "feed", Machine: "m-src", Rate: 2000}},
		Subjobs: []ha.TopologySubjob{
			{ID: "split", Inputs: []string{"feed"}, PEs: cheapPEs(1), Mode: ha.ModeNone, Primary: "m-split", BatchSize: 16},
			{ID: "a", Inputs: []string{"split"}, PEs: cheapPEs(1), Mode: ha.ModeHybrid, Primary: "m-a", Secondary: "m-a2", BatchSize: 16},
			{ID: "b", Inputs: []string{"split"}, PEs: cheapPEs(1), Mode: ha.ModeNone, Primary: "m-b", BatchSize: 16},
			{ID: "merge", Inputs: []string{"a", "b"}, PEs: cheapPEs(1), Mode: ha.ModeNone, Primary: "m-merge", BatchSize: 16},
		},
		Sinks: []ha.TopologySink{{Name: "out", Machine: "m-sink", Inputs: []string{"merge"}, TrackIDs: true}},
	})
	if err != nil {
		cl.Close()
		t.Fatalf("NewTopology: %v", err)
	}
	t.Cleanup(func() {
		topo.Stop()
		cl.Close()
	})

	inputs := map[string][]string{"split": {"feed"}, "a": {"split"}, "b": {"split"}, "merge": {"a", "b"}}
	stream := func(node string) string {
		if node == "feed" {
			return topo.Source("feed").Out().StreamID
		}
		return topo.Group(node).Spec.OutStream
	}
	owner := func(node string) string {
		if node == "feed" {
			return cluster.SourceOwner
		}
		return topo.Group(node).Spec.ID
	}
	outputs := func(node string) []*queue.Output {
		if node == "feed" {
			return []*queue.Output{topo.Source("feed").Out()}
		}
		return topo.Group(node).LiveOutputs()
	}

	if got := topo.Order(); !reflect.DeepEqual(got, []string{"split", "a", "b", "merge"}) {
		t.Fatalf("order %v", got)
	}
	if id := topo.Sink("out").ID(); id != "dag/out" {
		t.Fatalf("sink ID %q", id)
	}
	seen := map[string]bool{}
	for _, name := range topo.Order() {
		g := topo.Group(name)
		if g.Stage != -1 || g.Part != -1 || g.Def.ID != name || g.Spec.ID != "dag/"+name {
			t.Fatalf("%s: stage %d part %d def %q spec %q", name, g.Stage, g.Part, g.Def.ID, g.Spec.ID)
		}
		if seen[g.Spec.OutStream] {
			t.Fatalf("%s: output stream %q shared", name, g.Spec.OutStream)
		}
		seen[g.Spec.OutStream] = true
		var wantIn []string
		wantOwners := map[string]string{}
		for _, in := range inputs[name] {
			wantIn = append(wantIn, stream(in))
			wantOwners[stream(in)] = owner(in)
		}
		if !reflect.DeepEqual(g.Spec.InStreams, wantIn) || !reflect.DeepEqual(g.Spec.Owners, wantOwners) {
			t.Fatalf("%s reads %v owned by %v, want %v owned by %v", name, g.Spec.InStreams, g.Spec.Owners, wantIn, wantOwners)
		}
		// Every copy of every producer offers this group's copies a
		// subscription, active exactly when the target is.
		for _, in := range inputs[name] {
			targets := g.ConsumerTargets(stream(in))
			for _, out := range outputs(in) {
				for _, tg := range targets {
					if tg.Stream != subjob.DataStream(g.Spec.ID, stream(in)) || tg.Part != -1 {
						t.Fatalf("%s: target %+v", name, tg)
					}
					if _, ok := out.AckedBy(tg.Node); !ok {
						t.Fatalf("%s's output %s does not hold %s's copy on %s", in, out.StreamID, name, tg.Node)
					}
				}
			}
		}
	}

	// Subscriber counts per producer output: a's hybrid standby is an
	// inactive early connection on split's output; a's two copies both
	// feed merge.
	var b strings.Builder
	for _, node := range []string{"feed", "split", "a", "b", "merge"} {
		for _, out := range outputs(node) {
			st := out.Stats()
			fmt.Fprintf(&b, "%s subs=%d active=%d\n", node, st.Subscribers, st.ActiveSubscribers)
		}
	}
	want := `feed subs=1 active=1
split subs=3 active=2
a subs=1 active=1
a subs=1 active=1
b subs=1 active=1
merge subs=1 active=1
`
	diffLines(t, b.String(), want)
	if _, ok := topo.Group("merge").LiveOutputs()[0].AckedBy(topo.Sink("out").Node()); !ok {
		t.Fatal("merge's output does not hold the sink")
	}
}
