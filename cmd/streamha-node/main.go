// Command streamha-node runs one process of a multi-process streamha
// deployment over real TCP sockets, demonstrating that the runtime's
// transport abstraction holds beyond the in-process simulator.
//
// A deployment is described by one JSON file shared by all processes; each
// process is started with the name of the process entry it should play:
//
//	streamha-node -config job.json -process feed
//	streamha-node -config job.json -process workers
//	streamha-node -config job.json -process dash
//
// Supported HA modes in multi-process operation are "none" and "active":
// their data planes (duplicate delivery, deduplication, acknowledgment
// trimming) are fully distributed. Passive, hybrid and approx standby
// additionally need the recovery control plane, which this reproduction
// implements in-process (see internal/ha and internal/core); run those
// through the library, the examples or streamha-demo. -mode overrides
// every subjob's configured mode (with -error-budget supplying the approx
// budget), so one config file can be validated against any mode spelling
// even where the mode itself cannot run multi-process.
//
// Example config:
//
//	{
//	  "processes": {
//	    "feed":    {"listen": "127.0.0.1:7101", "machines": ["src"]},
//	    "workers": {"listen": "127.0.0.1:7102", "machines": ["p0", "p1", "s0", "s1"]},
//	    "dash":    {"listen": "127.0.0.1:7103", "machines": ["sink"]}
//	  },
//	  "fault_domains": {"p0": "rack-a", "s0": "rack-b", "p1": "rack-a", "s1": "rack-b"},
//	  "job": {
//	    "id": "job",
//	    "rate": 1000,
//	    "source_machine": "src",
//	    "sink_machine": "sink",
//	    "subjobs": [
//	      {"id": "sj0", "mode": "active", "primary": "p0", "secondary": "s0", "pes": 2, "cost_us": 100},
//	      {"id": "sj1", "mode": "active", "primary": "p1", "secondary": "s1", "pes": 2, "cost_us": 100}
//	    ]
//	  },
//	  "run_seconds": 10
//	}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/clock"
	"streamha/internal/cluster"
	"streamha/internal/ha"
	"streamha/internal/machine"
	"streamha/internal/metrics"
	"streamha/internal/pe"
	"streamha/internal/sched"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

type deployment struct {
	Processes map[string]processDef `json:"processes"`
	// FaultDomains optionally labels machines with fault domains
	// (machine id -> domain); the -fault-domain flag overrides it.
	FaultDomains map[string]string `json:"fault_domains"`
	Job          jobDef            `json:"job"`
	RunSeconds   int               `json:"run_seconds"`
}

type processDef struct {
	Listen   string   `json:"listen"`
	Machines []string `json:"machines"`
}

type jobDef struct {
	ID            string      `json:"id"`
	Rate          float64     `json:"rate"`
	SourceMachine string      `json:"source_machine"`
	SinkMachine   string      `json:"sink_machine"`
	Subjobs       []subjobDef `json:"subjobs"`
}

type subjobDef struct {
	ID        string `json:"id"`
	Mode      string `json:"mode"`
	Primary   string `json:"primary"`
	Secondary string `json:"secondary"`
	PEs       int    `json:"pes"`
	CostUS    int    `json:"cost_us"`
	StatePad  int    `json:"state_pad"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "checkpoint" {
		if err := runCheckpoint(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "streamha-node checkpoint: %v\n", err)
			os.Exit(1)
		}
		return
	}
	configPath := flag.String("config", "", "deployment JSON file (required)")
	process := flag.String("process", "", "process entry to play (required)")
	snapshot := flag.Int("snapshot", 0, "print a JSON metrics snapshot every N seconds (0: only at exit)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics as JSON over HTTP at this address (GET /metrics.json)")
	catalogDir := flag.String("catalog-dir", "", "durable checkpoint catalog directory; enables persist-before-ack checkpointing for hosted subjob copies")
	restore := flag.Bool("restore", false, "restore hosted subjob copies from the catalog before starting (requires -catalog-dir)")
	checkpointMS := flag.Int("checkpoint-ms", 50, "checkpoint interval in milliseconds when -catalog-dir is set")
	rebaseEvery := flag.Int("checkpoint-rebase", 4, "with -catalog-dir, take up to N-1 delta checkpoints between full snapshots (1: always full)")
	mode := flag.String("mode", "", "override every subjob's HA mode (one of the ha.Modes names; approx takes its budget from -error-budget)")
	errorBudget := flag.Int("error-budget", 0, "approx-mode error budget: max in-flight elements a failover may lose (required > 0 with -mode approx)")
	metricsTTLMS := flag.Int("metrics-ttl-ms", 0, "cache metrics sources for this many milliseconds between scrapes of /metrics and /metrics.json (0: always re-evaluate)")
	schedOn := flag.Bool("sched", false, "run a placement scheduler over this process's machines: resolves subjobs with empty primary/secondary (single-process deployments), tracks assignments and serves sched metrics")
	faultDomain := flag.String("fault-domain", "", "fault-domain labels: a bare name labels every hosted machine, or per-machine pairs \"w1=rack-a,w2=rack-b\"; overrides the config's fault_domains map")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of this process's run to this file")
	flag.Parse()
	if *configPath == "" || *process == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *restore && *catalogDir == "" {
		fmt.Fprintln(os.Stderr, "streamha-node: -restore requires -catalog-dir")
		os.Exit(2)
	}
	opts := nodeOptions{
		snapshotSec:  *snapshot,
		metricsAddr:  *metricsAddr,
		catalogDir:   *catalogDir,
		restore:      *restore,
		checkpointMS: *checkpointMS,
		rebaseEvery:  *rebaseEvery,
		mode:         *mode,
		errorBudget:  *errorBudget,
		metricsTTLMS: *metricsTTLMS,
		sched:        *schedOn,
		faultDomain:  *faultDomain,
	}
	err := metrics.WithCPUProfile(*cpuProfile, func() error { return run(*configPath, *process, opts) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamha-node: %v\n", err)
		os.Exit(1)
	}
}

// nodeOptions carries run's optional knobs (everything beyond the config
// file and the process name).
type nodeOptions struct {
	snapshotSec  int
	metricsAddr  string
	catalogDir   string
	restore      bool
	checkpointMS int
	rebaseEvery  int
	mode         string
	errorBudget  int
	metricsTTLMS int
	sched        bool
	faultDomain  string
}

func run(configPath, process string, opts nodeOptions) error {
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	var dep deployment
	if err := json.Unmarshal(raw, &dep); err != nil {
		return fmt.Errorf("parse %s: %w", configPath, err)
	}
	self, ok := dep.Processes[process]
	if !ok {
		return fmt.Errorf("process %q not in config", process)
	}
	if opts.mode != "" {
		// -mode overrides every subjob; "approx" composes -error-budget
		// into the canonical "approx:<n>" spelling, so a zero or negative
		// budget fails ParseModeBudget's validation below.
		spec := opts.mode
		if spec == "approx" {
			spec = fmt.Sprintf("approx:%d", opts.errorBudget)
		}
		if _, _, err := ha.ParseModeBudget(spec); err != nil {
			return err
		}
		for i := range dep.Job.Subjobs {
			dep.Job.Subjobs[i].Mode = spec
		}
	}
	for _, sj := range dep.Job.Subjobs {
		mode, err := ha.ParseMode(sj.Mode)
		if err != nil {
			return fmt.Errorf("subjob %s: %w", sj.ID, err)
		}
		if mode != ha.ModeNone && mode != ha.ModeActive {
			return fmt.Errorf("subjob %s: mode %q is not supported multi-process (use none or active; passive/hybrid/approx run in-process)", sj.ID, sj.Mode)
		}
	}

	// Build the peer table: every machine hosted elsewhere maps to its
	// process's listen address.
	peers := map[transport.NodeID]string{}
	for name, p := range dep.Processes {
		if name == process {
			continue
		}
		for _, m := range p.Machines {
			peers[transport.NodeID(m)] = p.Listen
		}
	}

	seg, err := transport.NewTCP(transport.TCPConfig{Listen: self.Listen, Peers: peers})
	if err != nil {
		return err
	}
	defer seg.Close()
	clk := clock.New()

	machines := map[string]*machine.Machine{}
	for _, id := range self.Machines {
		m, err := machine.New(id, clk, seg)
		if err != nil {
			return err
		}
		machines[id] = m
	}

	// Fault-domain labels: the config's map, overridden by -fault-domain
	// (a bare name labels every hosted machine; "w1=rack-a,w2=rack-b"
	// labels specific ones).
	domains := map[string]string{}
	for id, d := range dep.FaultDomains {
		domains[id] = d
	}
	if opts.faultDomain != "" {
		for _, part := range strings.Split(opts.faultDomain, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if id, d, ok := strings.Cut(part, "="); ok {
				domains[id] = d
			} else {
				for _, id := range self.Machines {
					domains[id] = part
				}
			}
		}
	}

	// Placement scheduler (optional): a replicated placement log over up to
	// three of this process's machines, with every hosted machine admitted
	// as a schedulable member. Subjobs naming no machines are resolved here
	// — only meaningful in a single-process deployment, since other
	// processes wire against the literal names in the shared config.
	var sch *sched.Scheduler
	if opts.sched {
		replicas := make([]*machine.Machine, 0, 3)
		for _, id := range self.Machines {
			if len(replicas) == 3 {
				break
			}
			replicas = append(replicas, machines[id])
		}
		sch, err = sched.New(sched.Config{
			Clock:           clk,
			Replicas:        replicas,
			Tick:            25 * time.Millisecond,
			ElectionTimeout: 150 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		sch.Start()
		defer sch.Stop()
		// Each machine hosts at most one primary and one standby copy. The
		// source and sink hosts stay outside the schedulable pool, like the
		// simulator's testbed.
		const capacity = 2
		members := 0
		for _, id := range self.Machines {
			if id == dep.Job.SourceMachine || id == dep.Job.SinkMachine {
				continue
			}
			if err := sch.MemberUp(id, domains[id], capacity); err != nil {
				return err
			}
			members++
		}
		fmt.Printf("placement scheduler up: %d log replicas, %d schedulable machines\n",
			len(replicas), members)
	}
	resolved := false
	for i := range dep.Job.Subjobs {
		def := &dep.Job.Subjobs[i]
		sjID := dep.Job.ID + "/" + def.ID
		placedPri, placedSec := false, false
		if def.Primary == "" {
			if sch == nil {
				return fmt.Errorf("subjob %s: empty primary requires -sched", def.ID)
			}
			id, err := sch.Place(sched.Request{Subjob: sjID, Role: sched.RolePrimary})
			if err != nil {
				return fmt.Errorf("subjob %s: place primary: %w", def.ID, err)
			}
			def.Primary = id
			resolved, placedPri = true, true
			fmt.Printf("scheduler placed %s primary on %s\n", def.ID, id)
		}
		if def.Mode == "active" && def.Secondary == "" && sch != nil {
			req := sched.Request{
				Subjob:        sjID,
				Role:          sched.RoleStandby,
				AvoidMachines: []string{def.Primary},
			}
			if d := domains[def.Primary]; d != "" {
				req.AvoidDomains = []string{d}
			}
			id, err := sch.Place(req)
			if err != nil {
				return fmt.Errorf("subjob %s: place secondary: %w", def.ID, err)
			}
			def.Secondary = id
			resolved, placedSec = true, true
			fmt.Printf("scheduler placed %s secondary on %s (outside %s)\n", def.ID, id, domains[def.Primary])
		}
		if sch != nil {
			// Record explicitly named copies too, so occupancy and denial
			// accounting cover the whole job; names outside this process's
			// membership are simply not tracked.
			if !placedPri {
				if err := sch.Assign(sjID, sched.RolePrimary, def.Primary); err != nil && !errors.Is(err, sched.ErrUnknownMember) {
					return err
				}
			}
			if def.Secondary != "" && !placedSec {
				if err := sch.Assign(sjID, sched.RoleStandby, def.Secondary); err != nil && !errors.Is(err, sched.ErrUnknownMember) {
					return err
				}
			}
		}
	}
	if resolved && len(dep.Processes) > 1 {
		return fmt.Errorf("scheduler-resolved placement needs a single-process deployment: other processes wire against the names in the shared config")
	}

	streams := make([]string, len(dep.Job.Subjobs)+1)
	for i := range streams {
		streams[i] = fmt.Sprintf("%s/s%d", dep.Job.ID, i)
	}
	specs := make([]subjob.Spec, len(dep.Job.Subjobs))
	for i, def := range dep.Job.Subjobs {
		owner := cluster.SourceOwner
		if i > 0 {
			owner = dep.Job.ID + "/" + dep.Job.Subjobs[i-1].ID
		}
		pes := make([]subjob.PESpec, max(1, def.PEs))
		for j := range pes {
			pad := def.StatePad
			pes[j] = subjob.PESpec{
				Name:     fmt.Sprintf("pe%d", j),
				NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: pad} },
				Cost:     time.Duration(def.CostUS) * time.Microsecond,
			}
		}
		specs[i] = subjob.Spec{
			JobID:     dep.Job.ID,
			ID:        dep.Job.ID + "/" + def.ID,
			InStreams: []string{streams[i]},
			Owners:    map[string]string{streams[i]: owner},
			OutStream: streams[i+1],
			PEs:       pes,
		}
	}

	// consumerTargets lists every copy of subjob i (or the sink) with its
	// data-stream name — wiring each local producer needs it.
	consumerTargets := func(i int) [][2]string {
		if i == len(dep.Job.Subjobs) {
			last := streams[len(streams)-1]
			return [][2]string{{dep.Job.SinkMachine, subjob.DataStream(dep.Job.ID+"/sink", last)}}
		}
		def := dep.Job.Subjobs[i]
		ds := subjob.DataStream(specs[i].ID, streams[i])
		out := [][2]string{{def.Primary, ds}}
		if def.Mode == "active" && def.Secondary != "" {
			out = append(out, [2]string{def.Secondary, ds})
		}
		return out
	}

	var stop []func()

	// Every component this process hosts registers in one metrics registry,
	// polled for the periodic report and the exit snapshot.
	reg := metrics.NewRegistry()
	if opts.metricsTTLMS > 0 {
		reg.SetSourceTTL(time.Duration(opts.metricsTTLMS) * time.Millisecond)
	}
	reg.Register("transport", func() any { return seg.Stats() })
	if sch != nil {
		sch.RegisterMetrics(reg)
	}

	// Live metrics endpoint: the same registry snapshot the periodic report
	// prints, pollable over HTTP while the process runs. Started before any
	// component wiring and shut down by defer, so an error on any later
	// path neither leaks the listener nor leaves the server running after
	// run returns.
	if opts.metricsAddr != "" {
		ln, err := net.Listen("tcp", opts.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv := &http.Server{Handler: metricsMux(reg)}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close()
			}
		}()
		fmt.Printf("serving metrics at http://%s/metrics.json (JSON) and /metrics (Prometheus)\n", ln.Addr())
	}

	// Durable checkpoint catalog (optional): hosted copies checkpoint into
	// it through catalog-backed stores, and -restore boots them from it.
	var cat *checkpoint.Catalog
	if opts.catalogDir != "" {
		bk, err := checkpoint.NewDiskBackend(opts.catalogDir)
		if err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		cat = checkpoint.NewCatalog(bk, checkpoint.Retention{MaxCheckpoints: 64})
		reg.Register("catalog", func() any { return cat.Stats() })
		fmt.Printf("durable checkpoint catalog at %s\n", opts.catalogDir)
	}
	if opts.checkpointMS <= 0 {
		opts.checkpointMS = 50
	}

	// Local subjob copies.
	for i, def := range dep.Job.Subjobs {
		for _, host := range copyHosts(def) {
			m := machines[host]
			if m == nil {
				continue
			}
			rt, err := subjob.New(specs[i], m, false)
			if err != nil {
				return err
			}
			// Each copy keeps its own catalog history: two copies of one
			// subjob (active mode) have independent checkpoint sequences.
			catKey := specs[i].ID + "@" + host
			var restoredSeq uint64
			if cat != nil && opts.restore {
				snap, seq, err := cat.Restore(catKey, 0)
				switch {
				case err != nil:
					fmt.Printf("no catalog restore for %s: %v\n", catKey, err)
				default:
					// The runtime has not started: restoring now seeds the
					// PE states, queues and the input dedup floor before any
					// element can arrive and be processed from empty state.
					if err := rt.Restore(snap); err != nil {
						return fmt.Errorf("restore %s: %w", catKey, err)
					}
					restoredSeq = seq
					fmt.Printf("restored %s from catalog at seq %d (%d units)\n", catKey, seq, snap.ElementUnits())
				}
			}
			reg.Register("subjob/"+def.ID+"/"+host, func() any { return rt.Stats() })
			rt.Start()
			for _, tgt := range consumerTargets(i + 1) {
				rt.Out().Subscribe(transport.NodeID(tgt[0]), tgt[1], true)
			}
			if cat != nil {
				// Durable mode: a catalog-backed store on the copy's own
				// machine plus a sweeping checkpoint manager replace the
				// acker — upstream acknowledgments then flow only after the
				// checkpoint covering them is persisted, so a cold restart
				// never finds upstream trimmed past what it can restore.
				store := checkpoint.NewStore(m, specs[i].ID, &checkpoint.Image{}, checkpoint.StoreOptions{
					Catalog:    cat,
					CatalogKey: catKey,
				})
				cm := checkpoint.NewSweeping(checkpoint.Config{
					Runtime:     rt,
					Clock:       clk,
					Interval:    time.Duration(opts.checkpointMS) * time.Millisecond,
					StoreNode:   m.ID(),
					RebaseEvery: opts.rebaseEvery,
					SeqBase:     restoredSeq,
				})
				cm.Start()
				reg.Register("store/"+def.ID+"/"+host, func() any { return store.Stats() })
				reg.Register("ckptmgr/"+def.ID+"/"+host, func() any { return cm.Stats() })
				stop = append(stop, store.Close, cm.Stop, rt.Stop)
			} else {
				acker := checkpoint.NewAcker(rt, clk, 20*time.Millisecond)
				acker.Start()
				stop = append(stop, acker.Stop, rt.Stop)
			}
			if cat != nil {
				// Durable-boot resync: ask each upstream producer to
				// force-replay everything past this copy's acknowledgment
				// floor. After a restore this recovers data sent to the dead
				// process — beyond the sender's watermark but never
				// delivered; on a fresh boot (floor zero) it recovers the
				// stream head emitted before this process was reachable,
				// which the sender also counts as sent. Either way the input
				// dedup floor absorbs the overlap.
				if restoredSeq > 0 {
					rt.Out().RetransmitAll()
				}
				owner := specs[i].Owners[streams[i]]
				ups := upstreamHosts(dep, i)
				resync := func() {
					for _, up := range ups {
						m.Send(transport.NodeID(up), transport.Message{
							Kind:   transport.KindControl,
							Stream: subjob.ResyncStream(owner, streams[i]),
						})
					}
				}
				resync()
				// The request is a single frame on a lazily-dialed
				// transport: if the upstream process is not up yet it is
				// silently dropped, so keep asking until data flows.
				go func(rt *subjob.Runtime, stream string) {
					for attempt := 0; attempt < 20; attempt++ {
						time.Sleep(250 * time.Millisecond)
						if rt.ConsumedPositions()[stream] > 0 {
							return
						}
						resync()
					}
				}(rt, streams[i])
			}
			fmt.Printf("hosting subjob copy %s on %s\n", specs[i].ID, host)
		}
	}

	// Local sink.
	var sink *cluster.Sink
	if m := machines[dep.Job.SinkMachine]; m != nil {
		last := streams[len(streams)-1]
		sink = cluster.NewSink(cluster.SinkConfig{
			Machine:     m,
			Clock:       clk,
			ID:          dep.Job.ID + "/sink",
			InStreams:   []string{last},
			Owners:      map[string]string{last: specs[len(specs)-1].ID},
			AckInterval: 20 * time.Millisecond,
		})
		sink.RegisterMetrics(reg)
		sink.Start()
		stop = append(stop, sink.Stop)
		fmt.Printf("hosting sink on %s\n", dep.Job.SinkMachine)
	}

	// Local source, started last so consumers elsewhere have a moment to
	// come up (operators start the source process last, as the README
	// instructs).
	var src *cluster.Source
	if m := machines[dep.Job.SourceMachine]; m != nil {
		src = cluster.NewSource(cluster.SourceConfig{
			Machine: m,
			Clock:   clk,
			Stream:  streams[0],
			Rate:    dep.Job.Rate,
		})
		for _, tgt := range consumerTargets(0) {
			src.Out().Subscribe(transport.NodeID(tgt[0]), tgt[1], true)
		}
		reg.Register("source", func() any { return src.Stats() })
		src.Start()
		stop = append(stop, src.Stop)
		fmt.Printf("hosting source on %s at %.0f elements/s\n", dep.Job.SourceMachine, dep.Job.Rate)
	}

	// Run until the deadline or a signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	deadline := time.Duration(dep.RunSeconds) * time.Second
	if deadline <= 0 {
		deadline = time.Hour
	}
	report := time.NewTicker(2 * time.Second)
	defer report.Stop()
	var snap <-chan time.Time
	if opts.snapshotSec > 0 {
		t := time.NewTicker(time.Duration(opts.snapshotSec) * time.Second)
		defer t.Stop()
		snap = t.C
	}
	end := time.After(deadline)
loop:
	for {
		select {
		case <-sig:
			break loop
		case <-end:
			break loop
		case <-report.C:
			if sink != nil {
				printSinkReport(sink.Delays(), sink.Received())
			} else if src != nil {
				fmt.Printf("source emitted %d elements\n", src.Emitted())
			}
		case <-snap:
			printMetrics(reg)
		}
	}
	for i := len(stop) - 1; i >= 0; i-- {
		stop[i]()
	}
	if sink != nil {
		fmt.Println("final:")
		printSinkReport(sink.Delays(), sink.Received())
	}
	fmt.Println("metrics snapshot:")
	printMetrics(reg)
	return nil
}

// metricsMux serves a fresh registry snapshot on GET /metrics.json (JSON)
// and GET /metrics (Prometheus text exposition), both from the same
// registry, so a scraper and a dashboard observe the same state.
func metricsMux(reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		out, err := reg.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", metrics.PrometheusContentType)
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

func printMetrics(reg *metrics.Registry) {
	out, err := reg.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
		return
	}
	fmt.Println(string(out))
}

func copyHosts(def subjobDef) []string {
	hosts := []string{def.Primary}
	if def.Mode == "active" && def.Secondary != "" {
		hosts = append(hosts, def.Secondary)
	}
	return hosts
}

// upstreamHosts lists the machines producing subjob i's input stream: the
// source machine for the first stage, every copy of the previous stage
// otherwise. A restarted copy sends its resync request to each.
func upstreamHosts(dep deployment, i int) []string {
	if i == 0 {
		return []string{dep.Job.SourceMachine}
	}
	return copyHosts(dep.Job.Subjobs[i-1])
}

func printSinkReport(d *metrics.DelayStats, received uint64) {
	fmt.Printf("sink: %d elements, mean delay %.1f ms, p99 %.1f ms\n",
		received, d.Mean().Seconds()*1e3, d.Percentile(99).Seconds()*1e3)
}
