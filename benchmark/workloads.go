package main

import (
	"fmt"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/core"
	"streamha/internal/ha"
)

// workload is one set of inputs the benchmark runs. Every workload is an
// open loop: cluster.Source emits rate elements per second on a tick
// schedule whether or not the chain keeps up.
type workload struct {
	name string
	why  string

	rate  float64
	tick  time.Duration
	modes []ha.Mode // one per subjob, upstream to downstream
	pes   int       // PEs per subjob

	cost     time.Duration // simulated CPU work per element per PE
	pad      int           // PE state size, in element equivalents
	hotSlots []int         // per subjob: pe.CounterLogic.HotSlots
	batch    int           // per-PE batch size

	hybrid core.Options
	ps     ha.PSOptions
	approx core.ErrorBudget

	// stall injects one 600 ms CPU stall on p1 in every window.
	stall bool
	// tcp deploys over two in-process transport.TCP segments, wired by
	// hand, in place of ha.NewPipeline over transport.Mem.
	tcp bool
}

const (
	netLatency    = 200 * time.Microsecond
	ckptInterval  = 10 * time.Millisecond
	heartbeat     = 20 * time.Millisecond
	slowHeartbeat = 100 * time.Millisecond
	slowMisses    = 5
	stallLength   = 600 * time.Millisecond
	stallLoad     = 0.97
	tcpAckEvery   = 20 * time.Millisecond // the interval streamha-node uses
	pesPerSubjob  = 2
	stalledSubjob = 1
)

func uniform(n int, m ha.Mode) []ha.Mode {
	out := make([]ha.Mode, n)
	for i := range out {
		out[i] = m
	}
	return out
}

// workloads returns the four workloads in the order they run. The names are
// the ones BENCHMARK.json lists and later issues quote.
func workloads() []*workload {
	free := checkpoint.Costs{Disabled: true}
	return []*workload{
		{
			name:  "steady-none",
			why:   "unprotected 4-subjob chain at 50000 elems/s on transport.Mem: the data plane does all the work, checkpoint/core/detect do none",
			rate:  50000,
			tick:  2 * time.Millisecond,
			modes: uniform(4, ha.ModeNone),
			pes:   pesPerSubjob,
			pad:   50,
			batch: 64,
		},
		{
			name:     "ckpt-mixed",
			why:      "passive, hybrid-delta and approx subjobs with 160 kB PE states at 5000 elems/s: capture, encode, ship and fold dominate bytes and allocations",
			rate:     5000,
			tick:     2 * time.Millisecond,
			modes:    []ha.Mode{ha.ModePassive, ha.ModeHybrid, ha.ModeHybrid, ha.ModeApprox},
			pes:      pesPerSubjob,
			pad:      4000,
			hotSlots: []int{0, 0, 0, 64},
			batch:    64,
			// Detection is not this workload's subject, so its detectors are
			// slow: five misses of a 100 ms heartbeat. With the 20 ms
			// heartbeat of the other workloads, about one run in 25 saw
			// three misses in a row without any stall injected, and the
			// false migration of the passive subjob that followed left the
			// chain dropping every element as a sequence gap.
			hybrid: core.Options{
				HeartbeatInterval:     slowHeartbeat,
				MissThreshold:         slowMisses,
				CheckpointInterval:    ckptInterval,
				CheckpointCosts:       free,
				CheckpointRebaseEvery: 8,
			},
			ps: ha.PSOptions{
				HeartbeatInterval:  slowHeartbeat,
				MissThreshold:      slowMisses,
				CheckpointInterval: ckptInterval,
				CheckpointCosts:    free,
			},
			approx: core.ErrorBudget{MaxLostElements: 100},
		},
		{
			name:  "stall-hybrid",
			why:   "the paper's Section V-A chain, all hybrid, one 600 ms CPU stall per 2 s window: detection, switchover and rollback decide the delay",
			rate:  1000,
			tick:  5 * time.Millisecond,
			modes: uniform(4, ha.ModeHybrid),
			pes:   pesPerSubjob,
			cost:  300 * time.Microsecond,
			pad:   200,
			batch: 16,
			hybrid: core.Options{
				HeartbeatInterval:  heartbeat,
				CheckpointInterval: ckptInterval,
			},
			stall: true,
		},
		{
			name:  "tcp-active",
			why:   "two active-standby subjobs over two loopback TCP segments at 50000 elems/s: wire codec, batched writes and two-copy duplicate elimination",
			rate:  50000,
			tick:  2 * time.Millisecond,
			modes: uniform(2, ha.ModeActive),
			pes:   pesPerSubjob,
			cost:  2 * time.Microsecond,
			pad:   50,
			batch: 128,
			tcp:   true,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hops is the number of PEs an element crosses; each adds 1 to its payload.
func (w *workload) hops() int { return len(w.modes) * w.pes }

func (w *workload) hotSlotsOf(stage int) int {
	if stage < len(w.hotSlots) {
		return w.hotSlots[stage]
	}
	return 0
}
