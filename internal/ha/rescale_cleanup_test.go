package ha_test

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamha/internal/core"
	"streamha/internal/ha"
	"streamha/internal/pe"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// restoreGate is a counter PE whose Restore fails when fail is set: the
// state sync of a ScaleOut then cannot fold into the new instance.
type restoreGate struct {
	*pe.CounterLogic
	fail bool
}

func (g *restoreGate) Restore(state []byte) error {
	if g.fail {
		return errors.New("restore refused")
	}
	return g.CounterLogic.Restore(state)
}

// A ScaleOut whose first sync round does not fold into the new instance
// fails after the instance was deployed. The failure leaves no trace of
// it: its PE loops stop, its scheduler slots go back, the sink's link does
// not list its stream, and a retry grows the stage once.
func TestRescaleFailedSyncLeavesNoInstance(t *testing.T) {
	cl, s := scheduledFourWorkers(t)
	var refuse atomic.Bool
	p, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:     cl,
		JobID:       "grow",
		Source:      ha.SourceDef{Machine: "m-src", Rate: 2000},
		SinkMachine: "m-sink",
		Subjobs: []ha.SubjobDef{{
			PEs: []subjob.PESpec{{
				Name: "pe0",
				NewLogic: func() pe.Logic {
					return &restoreGate{CounterLogic: &pe.CounterLogic{Pad: 50}, fail: refuse.Load()}
				},
				Cost: 10 * time.Microsecond,
			}},
			Mode:        ha.ModeHybrid,
			Parallelism: 2,
			BatchSize:   16,
		}},
		Hybrid:    core.Options{CheckpointInterval: 10 * time.Millisecond},
		Scheduler: s,
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	t.Cleanup(p.Stop)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	cl.Clock().Sleep(100 * time.Millisecond)

	const added = "grow/sj0.p2"
	links := p.LinkStreams(1)
	refuse.Store(true)
	leavesNoPELoop(t, "a ScaleOut that failed its sync round", func() {
		if _, err := p.ScaleOut(0, ha.RescalePlacement{}); err == nil || !strings.Contains(err.Error(), "did not fold") {
			t.Fatalf("ScaleOut = %v, want a sync round that did not fold", err)
		}
	})
	for _, role := range []sched.Role{sched.RolePrimary, sched.RoleStandby} {
		if m, ok := s.Assignment(added, role); ok {
			t.Fatalf("%s %s still assigned to %s after the failed ScaleOut", added, role, m)
		}
	}
	if n := len(p.StageInstances(0)); n != 2 {
		t.Fatalf("the stage has %d instances after the failed ScaleOut, want 2", n)
	}
	if got := p.LinkStreams(1); !reflect.DeepEqual(got, links) {
		t.Fatalf("the sink's link is %v after the failed ScaleOut, want %v", got, links)
	}

	refuse.Store(false)
	if _, err := p.ScaleOut(0, ha.RescalePlacement{}); err != nil {
		t.Fatalf("retried ScaleOut: %v", err)
	}
	if n := len(p.StageInstances(0)); n != 3 {
		t.Fatalf("the stage has %d instances after the retry, want 3", n)
	}
	if _, ok := s.Assignment(added, sched.RolePrimary); !ok {
		t.Fatalf("%s primary not placed by the retry", added)
	}
}
