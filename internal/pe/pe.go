package pe

import (
	"sync"
	"time"

	"streamha/internal/element"
	"streamha/internal/queue"
)

// Source feeds a PE. Both queue.Input and Pipe satisfy it. The PE is the
// source's only consumer, and a batch TryPop returns belongs to the source:
// it is valid until the next TryPop, so the PE finishes a batch before it
// pops the next and keeps none of it.
type Source interface {
	Ready() <-chan struct{}
	TryPop(max int) []queue.In
}

// Sink receives a PE's outputs. Pipe satisfies it directly and copies what
// it is pushed; any other sink — the subjob runtime's adapter of
// queue.Output.Publish — takes ownership of the slice.
type Sink interface {
	Push(elems []element.Element)
}

// Executor charges CPU work to the hosting machine. machine.CPU satisfies
// it; tests may use a no-op.
type Executor interface {
	Execute(work time.Duration)
}

// Config assembles a PE runtime.
type Config struct {
	// Logic is the processing function with its checkpointable state.
	Logic Logic
	// Cost is the CPU work charged per input element; this is the
	// "synthesized computation" knob of the paper's evaluation.
	Cost time.Duration
	// BatchSize bounds how many elements are processed per loop iteration.
	// Defaults to 64. Smaller batches react to pause requests faster.
	BatchSize int
	// Executor charges processing work; nil means processing is free.
	Executor Executor
	// Source and Sink connect the PE into the subjob pipeline.
	Source Source
	Sink   Sink
}

// PE is the runtime driving one processing element: a goroutine that pops
// input batches, charges their CPU cost, applies the Logic and pushes the
// outputs. It implements the paper's pause/checkpoint/resume protocol:
// Pause parks the loop at a quiescent point (no element half-processed),
// after which the checkpoint manager may call Snapshot-related methods, and
// Resume restarts it. A parked PE consumes no CPU, which is how suspended
// hybrid-standby copies are kept warm for free.
type PE struct {
	cfg  Config
	kick chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	pauseReq bool
	parked   bool
	stopped  bool
	started  bool
	consumed map[string]uint64
	done     chan struct{}

	processed uint64

	// outs is the output batch under construction and emit appends to it.
	// Both belong to the run goroutine. emit is built once, in New: a
	// closure built per batch escapes through Logic.Process and takes the
	// slice header it captures to the heap with it, two objects per batch
	// beside the backing array. keepOuts is set when the sink is a *Pipe,
	// which copies on Push, so one outs array serves every batch; any other
	// sink owns the array it is pushed and the next batch needs a fresh one.
	outs     []element.Element
	emit     func(element.Element)
	keepOuts bool
}

// New creates a PE runtime; call Start to launch its loop.
func New(cfg Config) *PE {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	p := &PE{
		cfg:      cfg,
		kick:     make(chan struct{}, 1),
		consumed: make(map[string]uint64),
		done:     make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	p.emit = func(e element.Element) { p.outs = append(p.outs, e) }
	_, p.keepOuts = cfg.Sink.(*Pipe)
	return p
}

// Logic returns the PE's logic, for checkpointing and inspection.
func (p *PE) Logic() Logic { return p.cfg.Logic }

// Start launches the processing loop. Starting twice panics; a PE is
// started exactly once by its subjob runtime.
func (p *PE) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		panic("pe: Start called twice")
	}
	p.started = true
	p.mu.Unlock()
	go p.run()
}

// Stop terminates the loop; it returns once the goroutine has exited.
// Stopping a never-started PE is a no-op.
func (p *PE) Stop() {
	p.mu.Lock()
	started := p.started
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.signalKick()
	if started {
		<-p.done
	}
}

// Pause asks the loop to park at the next quiescent point and blocks until
// it has. Pausing an already-parked PE returns immediately.
func (p *PE) Pause() {
	p.mu.Lock()
	p.pauseReq = true
	p.mu.Unlock()
	p.signalKick()
	p.mu.Lock()
	for !p.parked && !p.stopped && p.started {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Resume lets a parked loop continue.
func (p *PE) Resume() {
	p.mu.Lock()
	p.pauseReq = false
	p.cond.Broadcast()
	p.mu.Unlock()
	p.signalKick()
}

// ConsumedPositions returns the highest input sequence number processed per
// logical stream. Only meaningful for the first PE of a subjob, whose
// source is the subjob input queue; positions become acknowledgments once
// the covering checkpoint is stored.
func (p *PE) ConsumedPositions() map[string]uint64 {
	return p.ConsumedPositionsInto(nil)
}

// ConsumedPositionsInto is ConsumedPositions writing into dst, which it
// clears first, and allocating only when dst is nil. A caller that drops
// each copy before it takes the next (the periodic acker) reuses one map.
func (p *PE) ConsumedPositionsInto(dst map[string]uint64) map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dst == nil {
		dst = make(map[string]uint64, len(p.consumed))
	}
	clear(dst)
	for k, v := range p.consumed {
		dst[k] = v
	}
	return dst
}

// SetConsumedPositions overwrites consumption positions during a restore.
// It copies pos into the PE's own map, which no caller ever holds: the
// ConsumedPositions methods hand out copies.
func (p *PE) SetConsumedPositions(pos map[string]uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.consumed)
	for k, v := range pos {
		p.consumed[k] = v
	}
}

// Processed returns the total number of elements processed.
func (p *PE) Processed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.processed
}

func (p *PE) signalKick() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// park blocks while a pause is requested. It returns false when the PE is
// stopped.
func (p *PE) park() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pauseReq && !p.stopped {
		p.parked = true
		p.cond.Broadcast()
		p.cond.Wait()
	}
	p.parked = false
	return !p.stopped
}

func (p *PE) run() {
	defer close(p.done)
	for {
		if !p.park() {
			return
		}
		// Drain available input, checking for control requests between
		// batches so pauses are honored promptly.
		for {
			ins := p.cfg.Source.TryPop(p.cfg.BatchSize)
			if len(ins) == 0 {
				break
			}
			p.processBatch(ins)
			if p.controlPending() {
				break
			}
		}
		if p.controlPending() {
			continue
		}
		select {
		case <-p.kick:
		case <-p.cfg.Source.Ready():
		}
	}
}

func (p *PE) controlPending() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pauseReq || p.stopped
}

func (p *PE) processBatch(ins []queue.In) {
	if p.cfg.Executor != nil && p.cfg.Cost > 0 {
		p.cfg.Executor.Execute(p.cfg.Cost * time.Duration(len(ins)))
	}
	if p.keepOuts {
		p.outs = p.outs[:0]
	} else {
		p.outs = make([]element.Element, 0, len(ins))
	}
	for _, in := range ins {
		p.cfg.Logic.Process(in.Elem, p.emit)
	}
	outs := p.outs
	if !p.keepOuts {
		// The sink owns the slice from the push on, so the field lets go first.
		p.outs = nil
	}
	if len(outs) > 0 {
		p.cfg.Sink.Push(outs)
	}
	p.mu.Lock()
	p.processed += uint64(len(ins))
	for _, in := range ins {
		if in.Stream == "" {
			continue
		}
		if in.Elem.Seq > p.consumed[in.Stream] {
			p.consumed[in.Stream] = in.Elem.Seq
		}
	}
	p.mu.Unlock()
}
