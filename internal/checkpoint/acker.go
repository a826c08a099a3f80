package checkpoint

import (
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/subjob"
)

// Acker periodically acknowledges a subjob copy's consumed positions
// upstream without checkpointing. It is the trim driver for HA modes that
// keep no passive state: NONE, active standby, and a hybrid standby while
// it is activated (the paper's AS phase does not checkpoint).
type Acker struct {
	rt       *subjob.Runtime
	clk      clock.Clock
	interval time.Duration

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewAcker creates an acker for rt firing every interval.
func NewAcker(rt *subjob.Runtime, clk clock.Clock, interval time.Duration) *Acker {
	return &Acker{
		rt:       rt,
		clk:      clk,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the ack loop.
func (a *Acker) Start() {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return
	}
	a.started = true
	a.mu.Unlock()
	go a.run()
}

// Stop halts the loop and waits for it.
func (a *Acker) Stop() {
	a.mu.Lock()
	if !a.started {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

func (a *Acker) run() {
	defer close(a.done)
	t := a.clk.NewTicker(a.interval)
	defer t.Stop()
	// AckUpstream is done with the positions when it returns, so one map
	// serves every tick.
	var pos map[string]uint64
	for {
		select {
		case <-a.stop:
			return
		case <-t.C():
			if a.rt.Suspended() || a.rt.Machine().Crashed() {
				continue
			}
			pos = a.rt.ConsumedPositionsInto(pos)
			a.rt.AckUpstream(pos)
		}
	}
}
