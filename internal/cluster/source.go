package cluster

import (
	"math"
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// SourceOwner is the owner name used in the source's ack-stream naming.
const SourceOwner = "source"

// SourceConfig parameterizes a stream source.
type SourceConfig struct {
	// Machine hosts the source. The paper keeps the source machine free of
	// injected failures so the input rate stays stable.
	Machine *machine.Machine
	// Clock is the time source.
	Clock clock.Clock
	// Stream is the logical stream the source produces.
	Stream string
	// Rate is the average element rate per second.
	Rate float64
	// Tick is the batching period (default 5 ms): each tick emits
	// Rate×Tick elements in one data message.
	Tick time.Duration
	// BurstOn/BurstOff, when both positive, modulate the rate in an on/off
	// pattern: Rate×(on+off)/on during on-periods and zero during
	// off-periods, keeping the same average. Bursty input is what makes the
	// benchmark detector fire falsely.
	BurstOn, BurstOff time.Duration
}

// Source emits a deterministic element stream through an output queue, so
// that recoveries can retransmit from the source exactly like from any
// subjob.
type Source struct {
	cfg SourceConfig
	out *queue.Output

	mu      sync.Mutex
	nextID  uint64
	carry   float64
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewSource creates a source; call Start to begin emitting.
func NewSource(cfg SourceConfig) *Source {
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	s := &Source{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.out = queue.NewOutput(cfg.Stream, func(to transport.NodeID, msg transport.Message) {
		cfg.Machine.Send(to, msg)
	})
	cfg.Machine.RegisterStream(subjob.AckStream(SourceOwner, cfg.Stream), func(from transport.NodeID, msg transport.Message) {
		s.out.Ack(from, msg.Seq)
	})
	cfg.Machine.RegisterStream(subjob.ResyncStream(SourceOwner, cfg.Stream), func(from transport.NodeID, _ transport.Message) {
		// A restarted consumer asks for everything past its acknowledgment
		// floor; its restored input dedup absorbs the overlap.
		s.out.Resync(from)
	})
	return s
}

// Out returns the source's output queue, for subscription wiring.
func (s *Source) Out() *queue.Output { return s.out }

// Emitted returns the number of elements emitted so far.
func (s *Source) Emitted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// SourceStats is a JSON-marshalable view of the source, exported through
// the metrics registry.
type SourceStats struct {
	Emitted uint64            `json:"emitted"`
	Output  queue.OutputStats `json:"output"`
}

// Stats captures the emission count and output-queue retention state.
func (s *Source) Stats() SourceStats {
	return SourceStats{Emitted: s.Emitted(), Output: s.out.Stats()}
}

// Start launches the emission loop.
func (s *Source) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.run()
}

// Stop halts emission.
func (s *Source) Stop() {
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
}

func (s *Source) run() {
	defer close(s.done)
	t := s.cfg.Clock.NewTicker(s.cfg.Tick)
	defer t.Stop()
	epoch := s.cfg.Clock.Now()
	last := epoch
	for {
		select {
		case <-s.stop:
			return
		case <-t.C():
			now := s.cfg.Clock.Now()
			s.emit(epoch, now.Sub(last))
			last = now
		}
	}
}

// emit produces the elements owed for the dt that actually elapsed since
// the previous tick — tickers drop ticks under scheduling pressure, and
// integrating over real elapsed time keeps the average rate exact. After a
// stall one tick emits at most four ticks' worth; the rest of the debt
// stays in carry and is paid off over the following ticks, so a stall
// delays elements but loses none.
func (s *Source) emit(epoch time.Time, dt time.Duration) {
	if dt <= 0 {
		return
	}
	rate := s.cfg.Rate
	if s.cfg.BurstOn > 0 && s.cfg.BurstOff > 0 {
		phase := s.cfg.Clock.Since(epoch) % (s.cfg.BurstOn + s.cfg.BurstOff)
		if phase < s.cfg.BurstOn {
			rate *= float64(s.cfg.BurstOn+s.cfg.BurstOff) / float64(s.cfg.BurstOn)
		} else {
			rate = 0
		}
	}
	s.mu.Lock()
	s.carry += rate * dt.Seconds()
	n := min(int(s.carry), int(math.Ceil(rate*(4*s.cfg.Tick).Seconds())))
	s.carry -= float64(n)
	if n == 0 {
		s.mu.Unlock()
		return
	}
	now := s.cfg.Clock.Now().UnixNano()
	batch := make([]element.Element, n)
	for i := range batch {
		s.nextID++
		batch[i] = element.Element{
			ID:      s.nextID,
			Key:     s.nextID, // uniform over a keyed-parallel first stage
			Origin:  now,
			Payload: int64(s.nextID),
		}
	}
	s.mu.Unlock()
	s.out.Publish(batch)
}
