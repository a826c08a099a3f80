package pe

import (
	"sync"

	"streamha/internal/element"
	"streamha/internal/queue"
)

// Pipe is the in-memory queue connecting consecutive PEs inside one subjob.
// In the paper's model it is the upstream PE's output queue; because both
// ends live in the same process, acknowledgment is implicit and the pipe's
// content is captured in checkpoints (it is part of the producing PE's
// output queue). Consumption follows the same edge-triggered Ready/TryPop
// contract as queue.Input, including its single consumer and reused pop
// buffer.
type Pipe struct {
	mu     sync.Mutex
	buf    []element.Element
	popped []queue.In // TryPop's result, reused by the next TryPop
	ready  chan struct{}
}

// NewPipe returns an empty pipe.
func NewPipe() *Pipe {
	return &Pipe{ready: make(chan struct{}, 1)}
}

// Push appends a copy of elems: the caller keeps its slice and may reuse
// it as soon as Push returns.
func (p *Pipe) Push(elems []element.Element) {
	if len(elems) == 0 {
		return
	}
	p.mu.Lock()
	p.buf = append(p.buf, elems...)
	p.mu.Unlock()
	p.signal()
}

func (p *Pipe) signal() {
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// Ready returns the edge-triggered data-availability channel.
func (p *Pipe) Ready() <-chan struct{} { return p.ready }

// TryPop removes and returns up to max elements without blocking. The
// returned entries carry an empty Stream: consumption positions are only
// tracked at subjob boundaries. The returned slice belongs to the pipe and
// is valid until the next TryPop, which overwrites it.
func (p *Pipe) TryPop(max int) []queue.In {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.buf)
	if n == 0 {
		return nil
	}
	if n > max {
		n = max
	}
	p.popped = p.popped[:0]
	for _, e := range p.buf[:n] {
		p.popped = append(p.popped, queue.In{Elem: e})
	}
	// Compact in place: the survivors slide to the front of the same
	// backing array instead of reallocating it on every pop.
	k := copy(p.buf, p.buf[n:])
	p.buf = p.buf[:k]
	return p.popped
}

// Snapshot returns a copy of the pipe's content for a checkpoint.
func (p *Pipe) Snapshot() []element.Element {
	p.mu.Lock()
	defer p.mu.Unlock()
	return element.CloneBatch(p.buf)
}

// Restore replaces the pipe's content from a checkpoint.
func (p *Pipe) Restore(elems []element.Element) {
	p.mu.Lock()
	p.buf = append(p.buf[:0], elems...)
	n := len(p.buf)
	p.mu.Unlock()
	if n > 0 {
		p.signal()
	}
}

// Len returns the number of buffered elements.
func (p *Pipe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}
