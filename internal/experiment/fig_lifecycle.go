package experiment

import (
	"fmt"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/failure"
	"streamha/internal/ha"
	"streamha/internal/subjob"
)

// LifecycleRow is one mode's lifecycle trace: the settled state plus the
// per-subjob transition log after a scripted failure sequence (one
// transient stall, then a fail-stop crash of the primary machine).
type LifecycleRow struct {
	Mode        ha.Mode
	Stats       core.LifecycleStats
	Transitions []string
}

// LifecycleResult drives every standby policy through the same failure
// script and collects the lifecycle state machine's transition logs. It is
// not a paper figure; it exercises the control plane the figures rely on
// and makes the event/state walk of each policy inspectable from the CLI.
type LifecycleResult struct {
	Rows []LifecycleRow
}

// RunLifecycle runs the failure script once per mode. Each run deploys a
// single protected subjob (primary p1, standby s1, spare machine for
// hybrid re-protection), stalls the primary past the detection threshold,
// lets it recover, then crashes it for good.
func RunLifecycle(p Params) (*LifecycleResult, error) {
	p = p.withDefaults()
	res := &LifecycleResult{}
	for _, name := range ha.Modes() {
		if name == "approx" {
			// The approx mode's name carries its error budget.
			name = fmt.Sprintf("approx:%d", approxBudget.MaxLostElements)
		}
		mode, budget, err := ha.ParseModeBudget(name)
		if err != nil {
			return nil, err
		}
		row, err := runOneLifecycle(p, mode, budget)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runOneLifecycle(p Params, mode ha.Mode, budget core.ErrorBudget) (LifecycleRow, error) {
	cl := cluster.New(cluster.Config{Latency: p.Latency})
	for _, id := range []string{"m-src", "m-sink", "p1", "s1", "spare"} {
		cl.MustAddMachine(id)
	}
	defer cl.Close()

	pipe, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "job",
		Source:      ha.SourceDef{Machine: "m-src", Rate: p.Rate},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs: []subjob.PESpec{
				{Name: "pe", NewLogic: newCounterLogic(p.StatePad), Cost: p.PECost},
			},
			Mode: mode, Primary: "p1", Secondary: "s1", Spare: "spare",
			BatchSize: 16,
		}},
		Hybrid: core.Options{
			HeartbeatInterval:  p.HeartbeatInterval,
			CheckpointInterval: p.CheckpointInterval,
			FailStopAfter:      250 * time.Millisecond,
		},
		PS: ha.PSOptions{
			HeartbeatInterval:  p.HeartbeatInterval,
			CheckpointInterval: p.CheckpointInterval,
		},
		Approx: budget,
	})
	if err != nil {
		return LifecycleRow{}, err
	}
	if err := pipe.Start(); err != nil {
		return LifecycleRow{}, err
	}
	defer pipe.Stop()
	time.Sleep(p.Warmup)

	// Transient stall: long enough for either detector (1 miss for hybrid,
	// 3 for passive) to fire, short enough that hybrid rolls back instead
	// of promoting.
	g := pipe.Group(0)
	stallFor := 5 * p.HeartbeatInterval
	failure.InjectOnce(cl.Machine("p1").CPU(), cl.Clock(), 1.0, stallFor, 0)
	time.Sleep(stallFor + 600*time.Millisecond)

	// Fail-stop: crash whichever machine currently hosts the primary.
	// Unprotected subjobs skip this — with no standby the subjob would
	// simply die, which the modes with a policy are there to prevent.
	if mode != ha.ModeNone {
		cl.Machine(string(g.HA.PrimaryRuntime().Node())).Crash()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if len(g.HA.Failovers())+len(g.HA.Promotions()) >= 2 || mode == ha.ModeActive {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(300 * time.Millisecond)
	}

	st := g.HA.Stats()
	return LifecycleRow{Mode: mode, Stats: st, Transitions: st.Transitions}, nil
}

// Table renders the result: one summary row per mode followed by its
// transition log, one transition per line.
func (r *LifecycleResult) Table() Table {
	t := Table{
		Title: "Lifecycle: control-plane transition logs per standby policy",
		Note: "script: transient stall then fail-stop crash; " +
			"hybrid switches over + rolls back + promotes, passive migrates, active/none record nothing",
		Header: []string{"mode", "state", "switch", "rollback", "migrate", "promote", "chainbreak", "transition log"},
	}
	for _, row := range r.Rows {
		s := row.Stats
		logCol := "-"
		if len(row.Transitions) > 0 {
			logCol = row.Transitions[0]
		}
		t.Rows = append(t.Rows, []string{
			row.Mode.String(), s.State,
			fmt.Sprint(s.Switchovers), fmt.Sprint(s.Rollbacks),
			fmt.Sprint(s.Migrations), fmt.Sprint(s.Promotions),
			fmt.Sprint(s.ChainBreaks), logCol,
		})
		for _, tr := range row.Transitions[min(1, len(row.Transitions)):] {
			t.Rows = append(t.Rows, []string{"", "", "", "", "", "", "", tr})
		}
	}
	return t
}
