// Package detect implements transient-failure detection: the conventional
// heartbeat method the paper ends up recommending, and the benchmark
// (probe-based) method it compares against, together with quality scoring
// (detection ratio, false-alarm ratio, detection delay — Figures 12/13).
package detect

import (
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// DefaultReplyCost is the CPU work a machine spends producing one
// heartbeat reply. It is sized so that replies comfortably beat the
// heartbeat interval below ~85% machine load and decisively miss it at
// 95%+ — the paper's detection knee (Figure 12: heartbeat detection is
// rare at low loads and near-certain at 90%+).
const DefaultReplyCost = 2 * time.Millisecond

// Responder answers heartbeat pings on a machine, paying ReplyCost of CPU
// work per reply so that replies slow down with machine load.
type Responder struct {
	m         *machine.Machine
	replyCost time.Duration
	work      chan pingReq
	stop      chan struct{}
	done      chan struct{}
}

type pingReq struct {
	from        transport.NodeID
	seq         uint64
	replyStream string
}

// NewResponder starts a heartbeat responder on m. replyCost <= 0 selects
// DefaultReplyCost.
func NewResponder(m *machine.Machine, replyCost time.Duration) *Responder {
	if replyCost <= 0 {
		replyCost = DefaultReplyCost
	}
	r := &Responder{
		m:         m,
		replyCost: replyCost,
		work:      make(chan pingReq, 16),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	m.RegisterStream(subjob.HeartbeatStream(string(m.ID())), func(from transport.NodeID, msg transport.Message) {
		select {
		case r.work <- pingReq{from: from, seq: msg.Seq, replyStream: msg.Command}:
		default:
			// The responder is saturated — drop the ping, as an overloaded
			// machine would.
		}
	})
	go r.run()
	return r
}

func (r *Responder) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case req := <-r.work:
			// A crashed machine does nothing: check before paying the reply
			// cost, so pings queued around the crash burn no simulated CPU.
			if r.m.Crashed() {
				continue
			}
			r.m.CPU().ExecutePriority(r.replyCost)
			if r.m.Crashed() {
				continue
			}
			r.m.Send(req.from, transport.Message{
				Kind:   transport.KindPong,
				Stream: req.replyStream,
				Seq:    req.seq,
			})
		}
	}
}

// Close stops the responder.
func (r *Responder) Close() {
	select {
	case <-r.stop:
		return
	default:
	}
	close(r.stop)
	<-r.done
	r.m.UnregisterStream(subjob.HeartbeatStream(string(r.m.ID())))
}

// EventType classifies detector events.
type EventType int

// Detector event types.
const (
	EventFailure EventType = iota
	EventRecovery
)

// Event is one detector declaration with its timestamp.
type Event struct {
	Type EventType
	At   time.Time
}

// HeartbeatConfig configures a heartbeat detector.
type HeartbeatConfig struct {
	// Monitor is the machine the detector runs on (typically the secondary).
	Monitor *machine.Machine
	// Clock is the time source.
	Clock clock.Clock
	// Target is the monitored machine's node ID.
	Target transport.NodeID
	// Session uniquely names this detector's reply stream.
	Session string
	// Interval is the ping period (the paper sweeps 100–500 ms; experiments
	// here run at one-fifth scale).
	Interval time.Duration
	// MissThreshold is the number of consecutive missed replies that
	// declares a failure: 3 for conventional passive standby, 1 for the
	// hybrid method's aggressive trigger.
	MissThreshold int
	// OnFailure and OnRecovery are invoked from the detector goroutine.
	OnFailure  func(at time.Time)
	OnRecovery func(at time.Time)
}

// startupGrace is the number of initial pings whose misses are ignored,
// so deployment transients on a freshly started pipeline do not produce a
// spurious first-miss switchover.
const startupGrace = 3

// Heartbeat is the conventional ping/reply failure detector. Every
// interval it pings the target; when MissThreshold consecutive intervals
// pass without a reply it declares a failure, and when replies resume it
// declares recovery.
type Heartbeat struct {
	cfg HeartbeatConfig
	// pingStream is the target's heartbeat stream and replyStream this
	// detector's, named once rather than on every ping.
	pingStream  string
	replyStream string

	mu         sync.Mutex
	sent       uint64
	lastPong   uint64
	lastPongAt time.Time
	misses     int
	failed     bool
	events     []Event
	started    bool
	stop       chan struct{}
	done       chan struct{}
}

// NewHeartbeat creates a heartbeat detector.
func NewHeartbeat(cfg HeartbeatConfig) *Heartbeat {
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = 3
	}
	return &Heartbeat{
		cfg:         cfg,
		pingStream:  subjob.HeartbeatStream(string(cfg.Target)),
		replyStream: "hbreply|" + cfg.Session,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// Start registers the reply handler and launches the ping loop.
func (h *Heartbeat) Start() {
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()
	h.cfg.Monitor.RegisterStream(h.replyStream, h.onPong)
	go h.run()
}

// Stop halts the detector.
func (h *Heartbeat) Stop() {
	h.mu.Lock()
	if !h.started {
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
	h.cfg.Monitor.UnregisterStream(h.replyStream)
}

func (h *Heartbeat) run() {
	defer close(h.done)
	t := h.cfg.Clock.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C():
			h.tick()
		}
	}
}

// missSlack absorbs scheduling jitter in the reply path: a ping counts as
// missed only when the quiet period exceeds the interval by this margin.
func (h *Heartbeat) missSlack() time.Duration {
	slack := h.cfg.Interval / 4
	if slack < 4*time.Millisecond {
		slack = 4 * time.Millisecond
	}
	return slack
}

func (h *Heartbeat) tick() {
	now := h.cfg.Clock.Now()
	if h.cfg.Monitor.Crashed() {
		// A crashed monitor is blind, not informed: it cannot distinguish
		// "target down" from "my own machine down", so it declares nothing.
		// Resetting the quiet-period baseline also keeps a recovered
		// monitor from counting its own blackout as target misses.
		h.mu.Lock()
		h.lastPongAt = now
		h.misses = 0
		h.mu.Unlock()
		return
	}
	var declareFailure bool
	h.mu.Lock()
	if h.lastPongAt.IsZero() {
		h.lastPongAt = now
	}
	// Account the previous ping before sending the next: if replies have
	// been quiet for more than an interval (plus slack), it is a miss.
	if h.sent > startupGrace {
		if h.lastPong < h.sent && now.Sub(h.lastPongAt) > h.cfg.Interval+h.missSlack() {
			h.misses++
			if !h.failed && h.misses >= h.cfg.MissThreshold {
				h.failed = true
				h.events = append(h.events, Event{Type: EventFailure, At: now})
				declareFailure = true
			}
		} else if h.lastPong >= h.sent {
			h.misses = 0
		}
	}
	h.sent++
	seq := h.sent
	h.mu.Unlock()

	if declareFailure && h.cfg.OnFailure != nil {
		h.cfg.OnFailure(now)
	}
	h.cfg.Monitor.Send(h.cfg.Target, transport.Message{
		Kind:    transport.KindPing,
		Stream:  h.pingStream,
		Command: h.replyStream,
		Seq:     seq,
	})
}

func (h *Heartbeat) onPong(_ transport.NodeID, msg transport.Message) {
	now := h.cfg.Clock.Now()
	var declareRecovery bool
	h.mu.Lock()
	if msg.Seq > h.lastPong {
		h.lastPong = msg.Seq
		h.lastPongAt = now
	}
	// A reply for the most recent ping clears the miss streak even between
	// ticks.
	if h.lastPong >= h.sent {
		h.misses = 0
	}
	// One reply to the latest ping after a declared failure declares
	// recovery.
	if h.failed && msg.Seq >= h.sent {
		h.failed = false
		h.misses = 0
		h.events = append(h.events, Event{Type: EventRecovery, At: now})
		declareRecovery = true
	}
	h.mu.Unlock()
	if declareRecovery && h.cfg.OnRecovery != nil {
		h.cfg.OnRecovery(now)
	}
}

// Failed reports whether the detector currently considers the target
// failed.
func (h *Heartbeat) Failed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failed
}

// HeartbeatStats is a JSON-marshalable view of a heartbeat detector's
// state, exported through the metrics registry.
type HeartbeatStats struct {
	Target     string `json:"target"`
	Sent       uint64 `json:"pings_sent"`
	LastPong   uint64 `json:"last_pong_seq"`
	Misses     int    `json:"consecutive_misses"`
	Failed     bool   `json:"failed"`
	Failures   int    `json:"failures_declared"`
	Recoveries int    `json:"recoveries_declared"`
}

// Stats captures the detector's ping/reply position and declaration
// counts.
func (h *Heartbeat) Stats() HeartbeatStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HeartbeatStats{
		Target:   string(h.cfg.Target),
		Sent:     h.sent,
		LastPong: h.lastPong,
		Misses:   h.misses,
		Failed:   h.failed,
	}
	for _, e := range h.events {
		if e.Type == EventFailure {
			st.Failures++
		} else {
			st.Recoveries++
		}
	}
	return st
}

// Events returns a copy of the declared events.
func (h *Heartbeat) Events() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}
