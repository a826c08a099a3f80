package cluster

import (
	"slices"
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/metrics"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// SinkConfig parameterizes a measuring sink.
type SinkConfig struct {
	// Machine hosts the sink.
	Machine *machine.Machine
	// Clock is the time source.
	Clock clock.Clock
	// ID names the sink for stream routing (e.g. "sink").
	ID string
	// InStreams lists the logical streams the sink consumes.
	InStreams []string
	// Owners maps each input stream to the subjob ID producing it, for
	// acknowledgment routing.
	Owners map[string]string
	// AckInterval is how often consumed positions are acknowledged
	// upstream. The sink is stateless, so it acks on processing; its ack
	// cadence seeds the sweeping checkpoint cascade, so it defaults to the
	// job's checkpoint interval.
	AckInterval time.Duration
	// TrackIDs retains a count per delivered element ID for exactly-once
	// verification in tests (costs memory; off for long benchmarks).
	TrackIDs bool
}

// Sink consumes a job's final stream: it deduplicates (via its input
// queue), records end-to-end delay, and acknowledges upstream.
type Sink struct {
	cfg SinkConfig
	in  *queue.Input
	// delays receives one sample per delivered element.
	delays *metrics.DelayStats

	mu       sync.Mutex
	senders  map[string]map[transport.NodeID]time.Time
	consumed map[string]uint64
	// ackStreams maps each input stream to its owner's acknowledgment
	// stream name, built once when the input is registered.
	ackStreams map[string]string
	ids        map[uint64]int
	received   uint64
	onArrival  func(e element.Element, at time.Time)
	started    bool
	stop       chan struct{}
	done       chan struct{}

	// acks is sendAcks' scratch, reused across ack ticks. It is filled
	// under mu and read after mu is released, so it belongs to the run
	// goroutine, sendAcks' only caller.
	acks []pendingAck
}

// pendingAck is one acknowledgment sendAcks decided on under the lock.
type pendingAck struct {
	node   transport.NodeID
	stream string
	seq    uint64
}

// NewSink creates a sink; call Start to begin consuming.
func NewSink(cfg SinkConfig) *Sink {
	if cfg.AckInterval <= 0 {
		cfg.AckInterval = 10 * time.Millisecond
	}
	s := &Sink{
		cfg:        cfg,
		in:         queue.NewInput(cfg.InStreams...),
		delays:     &metrics.DelayStats{},
		senders:    make(map[string]map[transport.NodeID]time.Time),
		consumed:   make(map[string]uint64),
		ackStreams: make(map[string]string, len(cfg.InStreams)),
	}
	if cfg.TrackIDs {
		s.ids = make(map[uint64]int)
	}
	for _, logical := range cfg.InStreams {
		s.registerInput(logical)
	}
	return s
}

func (s *Sink) registerInput(logical string) {
	s.mu.Lock()
	s.ackStreams[logical] = subjob.AckStream(s.cfg.Owners[logical], logical)
	s.mu.Unlock()
	s.cfg.Machine.RegisterStream(subjob.DataStream(s.cfg.ID, logical), func(from transport.NodeID, msg transport.Message) {
		s.noteSender(logical, from)
		s.in.Push(logical, msg.Elements)
	})
}

// AddInput starts consuming a new logical stream owned by owner. Live
// rescaling uses it to attach the output stream of an instance added
// after deployment; the caller subscribes the sink on the producer side.
func (s *Sink) AddInput(logical, owner string) {
	s.mu.Lock()
	for _, st := range s.cfg.InStreams {
		if st == logical {
			s.mu.Unlock()
			return
		}
	}
	s.cfg.InStreams = append(s.cfg.InStreams, logical)
	if s.cfg.Owners == nil {
		s.cfg.Owners = make(map[string]string)
	}
	s.cfg.Owners[logical] = owner
	s.mu.Unlock()
	s.in.AddStream(logical)
	s.registerInput(logical)
}

// RemoveInput stops consuming logical, undoing AddInput: a live rescale
// that fails after attaching its new instance's output stream detaches it
// again.
func (s *Sink) RemoveInput(logical string) {
	s.mu.Lock()
	s.cfg.InStreams = slices.DeleteFunc(slices.Clone(s.cfg.InStreams), func(st string) bool { return st == logical })
	delete(s.cfg.Owners, logical)
	delete(s.ackStreams, logical)
	delete(s.senders, logical)
	delete(s.consumed, logical)
	s.mu.Unlock()
	s.cfg.Machine.UnregisterStream(subjob.DataStream(s.cfg.ID, logical))
}

// Node returns the sink machine's node ID.
func (s *Sink) Node() transport.NodeID { return s.cfg.Machine.ID() }

// ID returns the sink's routing name.
func (s *Sink) ID() string { return s.cfg.ID }

// In returns the sink's input queue, for wiring and tests.
func (s *Sink) In() *queue.Input { return s.in }

// Delays returns the sink's delay statistics.
func (s *Sink) Delays() *metrics.DelayStats { return s.delays }

// Received returns the number of elements delivered.
func (s *Sink) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// SinkStats is a JSON-marshalable view of the sink, exported through the
// metrics registry.
type SinkStats struct {
	Received  uint64                `json:"received"`
	InputLen  int                   `json:"input_len"`
	InputDups int                   `json:"input_dups"`
	InputGaps int                   `json:"input_gaps"`
	Delays    metrics.DelaySnapshot `json:"delays"`
}

// Stats captures delivery and dedup counters plus the live delay
// distribution.
func (s *Sink) Stats() SinkStats {
	dups, gaps := s.in.Drops()
	return SinkStats{
		Received:  s.Received(),
		InputLen:  s.in.Len(),
		InputDups: dups,
		InputGaps: gaps,
		Delays:    s.delays.Snapshot(),
	}
}

// RegisterMetrics registers the sink under "sink/<id>" in reg.
func (s *Sink) RegisterMetrics(reg *metrics.Registry) {
	reg.Register("sink/"+s.cfg.ID, func() any { return s.Stats() })
}

// IDCounts returns a copy of the per-ID delivery counts (TrackIDs only).
func (s *Sink) IDCounts() map[uint64]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]int, len(s.ids))
	for k, v := range s.ids {
		out[k] = v
	}
	return out
}

// senderStaleness bounds how long a copy that stopped delivering keeps
// receiving acknowledgments from the sink.
const senderStaleness = 2 * time.Second

func (s *Sink) noteSender(logical string, node transport.NodeID) {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	byNode := s.senders[logical]
	if byNode == nil {
		byNode = make(map[transport.NodeID]time.Time)
		s.senders[logical] = byNode
	}
	byNode[node] = now
}

// SetOnArrival registers a callback invoked for every delivered element.
// Recovery experiments use it to timestamp the first post-recovery output.
func (s *Sink) SetOnArrival(f func(e element.Element, at time.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onArrival = f
}

// Start launches the consume and ack loops.
func (s *Sink) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.run()
}

// Stop halts the sink.
func (s *Sink) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	s.mu.Lock()
	streams := append([]string(nil), s.cfg.InStreams...)
	s.mu.Unlock()
	for _, logical := range streams {
		s.cfg.Machine.UnregisterStream(subjob.DataStream(s.cfg.ID, logical))
	}
}

func (s *Sink) run() {
	defer close(s.done)
	ack := s.cfg.Clock.NewTicker(s.cfg.AckInterval)
	defer ack.Stop()
	for {
		for {
			ins := s.in.TryPop(256)
			if len(ins) == 0 {
				break
			}
			s.deliver(ins)
		}
		select {
		case <-s.stop:
			return
		case <-s.in.Ready():
		case <-ack.C():
			s.sendAcks()
		}
	}
}

func (s *Sink) deliver(ins []queue.In) {
	now := s.cfg.Clock.Now()
	nowNanos := now.UnixNano()
	s.mu.Lock()
	onArrival := s.onArrival
	for _, in := range ins {
		s.received++
		if in.Elem.Seq > s.consumed[in.Stream] {
			s.consumed[in.Stream] = in.Elem.Seq
		}
		if s.ids != nil {
			s.ids[in.Elem.ID]++
		}
	}
	s.mu.Unlock()
	for _, in := range ins {
		s.delays.Add(time.Duration(nowNanos - in.Elem.Origin))
		if onArrival != nil {
			onArrival(in.Elem, now)
		}
	}
}

func (s *Sink) sendAcks() {
	now := s.cfg.Clock.Now()
	acks := s.acks[:0]
	s.mu.Lock()
	for logical, byNode := range s.senders {
		stream, seq := s.ackStreams[logical], s.consumed[logical]
		for node, seen := range byNode {
			if now.Sub(seen) > senderStaleness {
				delete(byNode, node)
				continue
			}
			if seq != 0 {
				acks = append(acks, pendingAck{node: node, stream: stream, seq: seq})
			}
		}
	}
	s.mu.Unlock()
	for _, a := range acks {
		s.cfg.Machine.Send(a.node, transport.Message{
			Kind:   transport.KindAck,
			Stream: a.stream,
			Seq:    a.seq,
		})
	}
	s.acks = acks
}
