package main

import (
	"fmt"
	"net"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/clock"
	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/element"
	"streamha/internal/ha"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// stage is one subjob of a deployed chain, as the probe sees it.
type stage struct {
	mode ha.Mode
	// lc is the subjob's lifecycle; nil on the hand-wired TCP deployment,
	// which has ackers only.
	lc *core.Lifecycle
	// fixed holds the copies of a hand-wired stage.
	fixed []*subjob.Runtime
	// cpu is the simulated processor of the primary's machine.
	cpu *machine.CPU
}

// copies returns the stage's live copies, primary first.
func (s *stage) copies() []*subjob.Runtime {
	if s.lc == nil {
		return s.fixed
	}
	out := []*subjob.Runtime{s.lc.PrimaryRuntime()}
	if sec := s.lc.SecondaryRuntime(); sec != nil {
		out = append(out, sec)
	}
	return out
}

// deployment is one built chain job: what the runner starts, samples and
// stops, whichever transport carries it.
type deployment struct {
	source   *cluster.Source
	sink     *cluster.Sink
	stages   []*stage
	segments []transport.Network

	start func() error
	stop  func()
}

// netStats sums the traffic counters of every segment.
func (d *deployment) netStats() transport.Stats {
	sum := transport.Stats{Messages: map[transport.Kind]int64{}, Elements: map[transport.Kind]int64{}}
	for _, seg := range d.segments {
		st := seg.Stats()
		for k, v := range st.Messages {
			sum.Messages[k] += v
		}
		for k, v := range st.Elements {
			sum.Elements[k] += v
		}
		sum.Wire.FramesSent += st.Wire.FramesSent
		sum.Wire.BytesSent += st.Wire.BytesSent
		sum.Wire.Batches += st.Wire.Batches
		sum.Wire.FramesRecv += st.Wire.FramesRecv
		sum.Wire.BytesRecv += st.Wire.BytesRecv
		sum.Wire.FramesDropped += st.Wire.FramesDropped
	}
	return sum
}

// peSpecs builds stage i's PEs. With a tracer every logic is wrapped; the
// untraced pass runs the bare pe.CounterLogic.
func peSpecs(w *workload, i int, tr *tracer) []subjob.PESpec {
	pes := make([]subjob.PESpec, w.pes)
	for j := range pes {
		first := j == 0
		pes[j] = subjob.PESpec{
			Name: fmt.Sprintf("pe%d", j),
			NewLogic: func() pe.Logic {
				l := &pe.CounterLogic{Pad: w.pad, HotSlots: w.hotSlotsOf(i)}
				if tr == nil {
					return l
				}
				return tr.wrap(l, i, first)
			},
			Cost: w.cost,
		}
	}
	return pes
}

func deploy(w *workload, rate float64, tr *tracer, onArrival func(element.Element, time.Time)) (*deployment, error) {
	if w.tcp {
		return deployTCP(w, rate, tr, onArrival)
	}
	return deployMem(w, rate, tr, onArrival)
}

// deployMem builds the canonical chain with ha.NewPipeline on a
// cluster.Cluster: m-src, one primary machine p<i> per subjob (and a standby
// machine s<i> for a protected one), m-sink.
func deployMem(w *workload, rate float64, tr *tracer, onArrival func(element.Element, time.Time)) (*deployment, error) {
	cl := cluster.New(cluster.Config{Latency: netLatency})
	cl.MustAddMachine("m-src")
	cl.MustAddMachine("m-sink")
	defs := make([]ha.SubjobDef, len(w.modes))
	for i, mode := range w.modes {
		pri := fmt.Sprintf("p%d", i)
		cl.MustAddMachine(pri)
		sec := ""
		if mode != ha.ModeNone {
			sec = fmt.Sprintf("s%d", i)
			cl.MustAddMachine(sec)
		}
		defs[i] = ha.SubjobDef{
			PEs:       peSpecs(w, i, tr),
			Mode:      mode,
			Primary:   pri,
			Secondary: sec,
			BatchSize: w.batch,
		}
	}
	pipe, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "job",
		Source:      ha.SourceDef{Machine: "m-src", Rate: rate, Tick: w.tick},
		SinkMachine: "m-sink",
		Subjobs:     defs,
		Hybrid:      w.hybrid,
		PS:          w.ps,
		Approx:      w.approx,
		AckInterval: ckptInterval,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	pipe.Sink().SetOnArrival(onArrival)
	d := &deployment{
		source:   pipe.Source(),
		sink:     pipe.Sink(),
		segments: []transport.Network{cl.Network()},
		start:    pipe.Start,
		stop: func() {
			pipe.Stop()
			cl.Close()
		},
	}
	for i, g := range pipe.Groups() {
		d.stages = append(d.stages, &stage{
			mode: g.Mode,
			lc:   g.HA,
			cpu:  cl.Machine(defs[i].Primary).CPU(),
		})
	}
	return d, nil
}

// reservePorts returns n free loopback addresses. The listeners are closed
// before the segments reopen the ports, which leaves a window another
// process could take one in; NewTCP then fails and the run is invalid.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// deployTCP wires the chain by hand from machine.New, subjob.New,
// cluster.NewSource and cluster.NewSink, as cmd/streamha-node does, over two
// transport.TCP segments in this process. Segment A hosts the source, the
// sink and the odd subjobs' copies; segment B hosts the even subjobs'
// copies. Every link therefore crosses a socket, over two connections.
func deployTCP(w *workload, rate float64, tr *tracer, onArrival func(element.Element, time.Time)) (*deployment, error) {
	addrs, err := reservePorts(2)
	if err != nil {
		return nil, err
	}
	type placed struct {
		id  string
		seg int
	}
	hosts := []placed{{"m-src", 0}, {"m-sink", 0}}
	for i := range w.modes {
		seg := 1 - i%2
		hosts = append(hosts, placed{fmt.Sprintf("p%d", i), seg}, placed{fmt.Sprintf("s%d", i), seg})
	}
	peers := [2]map[transport.NodeID]string{{}, {}}
	for _, h := range hosts {
		peers[1-h.seg][transport.NodeID(h.id)] = addrs[h.seg]
	}
	var segs [2]*transport.TCP
	machines := map[string]*machine.Machine{}
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		for _, m := range machines {
			_ = m.Close() // the segment is closed next; nothing to report
		}
		for _, s := range segs {
			if s != nil {
				s.Close()
			}
		}
	}
	for i := range segs {
		segs[i], err = transport.NewTCP(transport.TCPConfig{Listen: addrs[i], Peers: peers[i], StrictRoutes: true})
		if err != nil {
			stopAll()
			return nil, err
		}
	}
	clk := clock.New()
	for _, h := range hosts {
		m, err := machine.New(h.id, clk, segs[h.seg])
		if err != nil {
			stopAll()
			return nil, err
		}
		machines[h.id] = m
	}

	n := len(w.modes)
	streams := make([]string, n+1)
	for i := range streams {
		streams[i] = fmt.Sprintf("job/s%d", i)
	}
	sjID := func(i int) string { return fmt.Sprintf("job/sj%d", i) }
	d := &deployment{segments: []transport.Network{segs[0], segs[1]}}
	var starts []func()
	for i := range w.modes {
		owner := cluster.SourceOwner
		if i > 0 {
			owner = sjID(i - 1)
		}
		spec := subjob.Spec{
			JobID:     "job",
			ID:        sjID(i),
			InStreams: []string{streams[i]},
			Owners:    map[string]string{streams[i]: owner},
			OutStream: streams[i+1],
			PEs:       peSpecs(w, i, tr),
			BatchSize: w.batch,
		}
		st := &stage{mode: w.modes[i], cpu: machines[fmt.Sprintf("p%d", i)].CPU()}
		for _, host := range []string{fmt.Sprintf("p%d", i), fmt.Sprintf("s%d", i)} {
			rt, err := subjob.New(spec, machines[host], false)
			if err != nil {
				stopAll()
				return nil, err
			}
			acker := checkpoint.NewAcker(rt, clk, tcpAckEvery)
			starts = append(starts, rt.Start, acker.Start)
			stops = append(stops, rt.Stop, acker.Stop)
			st.fixed = append(st.fixed, rt)
		}
		d.stages = append(d.stages, st)
	}
	d.sink = cluster.NewSink(cluster.SinkConfig{
		Machine:     machines["m-sink"],
		Clock:       clk,
		ID:          "job/sink",
		InStreams:   []string{streams[n]},
		Owners:      map[string]string{streams[n]: sjID(n - 1)},
		AckInterval: tcpAckEvery,
	})
	d.sink.SetOnArrival(onArrival)
	d.source = cluster.NewSource(cluster.SourceConfig{
		Machine: machines["m-src"],
		Clock:   clk,
		Stream:  streams[0],
		Rate:    rate,
		Tick:    w.tick,
	})
	// Every producer copy feeds every copy of its consumer.
	consumers := func(i int) [][2]string {
		if i == n {
			return [][2]string{{"m-sink", subjob.DataStream("job/sink", streams[n])}}
		}
		ds := subjob.DataStream(sjID(i), streams[i])
		return [][2]string{{fmt.Sprintf("p%d", i), ds}, {fmt.Sprintf("s%d", i), ds}}
	}
	for _, c := range consumers(0) {
		d.source.Out().Subscribe(transport.NodeID(c[0]), c[1], true)
	}
	for i, st := range d.stages {
		for _, rt := range st.fixed {
			for _, c := range consumers(i + 1) {
				rt.Out().Subscribe(transport.NodeID(c[0]), c[1], true)
			}
		}
	}
	d.start = func() error {
		d.sink.Start()
		for _, f := range starts {
			f()
		}
		d.source.Start()
		return nil
	}
	d.stop = func() {
		d.source.Stop()
		d.sink.Stop()
		stopAll()
	}
	return d, nil
}
