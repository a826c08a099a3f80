// Command partitioned demonstrates keyed parallelism: one pipeline stage
// fanned out over four hybrid-protected partition-instances by a stable
// hash of each element's key, then grown to five instances live — full
// snapshot plus chained delta checkpoints ship the donor's state while it
// keeps serving, and the cutover is a sub-millisecond routing-table flip.
// The program ends with an exactly-once audit over every emitted element
// and exits 1 if any element was lost or duplicated.
package main

import (
	"fmt"
	"log"
	"time"

	"streamha"
)

func main() {
	// Machines: source, sink, four primaries with standbys, and a spare
	// pair for the instance added later.
	cl := streamha.NewCluster(streamha.ClusterConfig{Latency: 200 * time.Microsecond})
	for _, id := range []string{"src", "sink", "p0", "p1", "p2", "p3", "s0", "s1", "s2", "s3", "p4", "s4"} {
		cl.MustAddMachine(id)
	}
	defer cl.Close()

	// One keyed-parallel stage: Parallelism(4) splits the key space over
	// four instances, each an independent hybrid-protected subjob. The
	// per-element cost makes a single instance top out around 25k
	// elements/s, so the offered 60k/s needs the fan-out.
	pipe, err := streamha.NewPipeline(streamha.PipelineConfig{
		Cluster:     cl,
		JobID:       "partitioned",
		Source:      streamha.SourceDef{Machine: "src", Rate: 60000, Tick: 2 * time.Millisecond},
		SinkMachine: "sink",
		Subjobs: []streamha.SubjobDef{{
			PEs: []streamha.PESpec{
				{Name: "count", NewLogic: func() streamha.Logic { return &streamha.CounterLogic{Pad: 50} }, Cost: 40 * time.Microsecond},
			},
			Mode:        streamha.Hybrid,
			Parallelism: 4,
			Primaries:   []string{"p0", "p1", "p2", "p3"},
			Secondaries: []string{"s0", "s1", "s2", "s3"},
			BatchSize:   32,
		}},
		TrackIDs: true,
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	if err := pipe.Start(); err != nil {
		log.Fatalf("start: %v", err)
	}
	defer pipe.Stop()

	time.Sleep(1 * time.Second)
	split := pipe.StagePartitioner(0)
	st := split.Stats()
	fmt.Printf("steady state: %d elements through %d instances (%v partitions each)\n",
		pipe.Sink().Received(), st.Instances, st.PerInst)

	// Grow to five instances while serving. The donor keeps processing
	// through the snapshot and delta rounds; the only pause is the final
	// delta under a drained backlog.
	fmt.Println("scaling out to 5 instances live ...")
	rep, err := pipe.ScaleOut(0, streamha.RescalePlacement{Primary: "p4", Secondary: "s4"})
	if err != nil {
		log.Fatalf("scale out: %v", err)
	}
	fmt.Printf("rescale: %d partitions moved from instance %d, %d B full + %d B delta over %d rounds, cutover pause %.2f ms\n",
		len(rep.Moved), rep.Donor, rep.FullBytes, rep.DeltaBytes, rep.Rounds,
		rep.CutoverPause.Seconds()*1e3)

	time.Sleep(1 * time.Second)
	st = split.Stats()
	fmt.Printf("after rescale: %d elements through %d instances (%v partitions each)\n",
		pipe.Sink().Received(), st.Instances, st.PerInst)

	// Exactly-once audit: stop the source, drain, and check that every
	// emitted element was delivered exactly once through the rescale.
	pipe.Source().Stop()
	time.Sleep(500 * time.Millisecond)
	emitted := pipe.Source().Emitted()
	counts := pipe.Sink().IDCounts()
	var dup, lost uint64
	for id := uint64(1); id <= emitted; id++ {
		switch c := counts[id]; {
		case c == 0:
			lost++
		case c > 1:
			dup += uint64(c - 1)
		}
	}
	fmt.Printf("audit: %d emitted, %d delivered, %d lost, %d duplicated\n",
		emitted, pipe.Sink().Received(), lost, dup)
	if lost > 0 || dup > 0 {
		log.Fatal("exactly-once audit failed")
	}
}
