package transport

import (
	"math"
	"sync"
	"time"

	"streamha/internal/clock"
)

// MemConfig configures an in-memory network.
type MemConfig struct {
	// Clock is the time source for latency simulation. Defaults to the wall
	// clock.
	Clock clock.Clock
	// Latency is the one-way delivery latency applied to every message.
	// Zero delivers synchronously with Send (still FIFO per receiver).
	Latency time.Duration
}

// Mem is an in-memory Network. Delivery is FIFO per (sender, receiver) pair:
// every message waits the same Latency, so a single delay line (see
// delayline.go) holds them in send order, which is deadline order; one
// scheduler goroutine releases its mature prefix and hands each message to
// a per-receiver dispatch goroutine that invokes the handler sequentially.
// A message is never delivered before its Latency has passed; how soon
// after depends on where the scheduler can wait (see schedule): on Linux
// with the wall clock a 200 µs hop takes about 0.23 ms, elsewhere a runtime
// timer makes it about 1.1 ms when the process is otherwise idle.
//
// The node registry is guarded by a read/write lock the hot send path only
// read-locks, and each receiver has its own inbox lock; a delayed send
// appends to the delay line under its one mutex, in O(1).
type Mem struct {
	cfg MemConfig

	// regMu guards the node registry and liveness flags. Sends take it in
	// read mode; registration, failure injection and shutdown — all rare —
	// take it in write mode.
	regMu  sync.RWMutex
	nodes  map[NodeID]*memNode
	down   map[NodeID]bool
	closed bool

	// line holds the deliveries waiting out Latency; unused when Latency is
	// zero.
	line delayLine
	// wake unparks the scheduler. It is signalled by Close, and by a send
	// only when the line reports that the scheduler found it empty: a
	// scheduler waiting for the head's deadline needs no wake-up, because
	// nothing sent during the wait can mature before the head. done is
	// closed when the scheduler exits.
	wake chan struct{}
	done chan struct{}

	obsMu    sync.RWMutex
	observer func(from, to NodeID, msg *Message)

	stats counters
}

// SetObserver installs a hook invoked synchronously on every Send (before
// latency and drop handling), for experiments that need per-destination
// traffic accounting. Pass nil to remove it. The hook must be fast and
// must not call back into the network.
func (m *Mem) SetObserver(f func(from, to NodeID, msg *Message)) {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	m.observer = f
}

var _ Network = (*Mem)(nil)

// NewMem creates an in-memory network and starts its delivery scheduler.
// Call Close to stop it.
func NewMem(cfg MemConfig) *Mem {
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	m := &Mem{
		cfg:   cfg,
		nodes: make(map[NodeID]*memNode),
		down:  make(map[NodeID]bool),
		wake:  make(chan struct{}, 1),
	}
	if cfg.Latency > 0 {
		m.done = make(chan struct{})
		go m.schedule()
	}
	return m
}

// Register implements Network.
func (m *Mem) Register(id NodeID, h Handler) (Endpoint, error) {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if _, ok := m.nodes[id]; ok {
		return nil, ErrDuplicateNode
	}
	n := newMemNode(m, id, h)
	m.nodes[id] = n
	return n, nil
}

// SetDown implements Network.
func (m *Mem) SetDown(id NodeID, down bool) {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if down {
		m.down[id] = true
	} else {
		delete(m.down, id)
	}
}

// Stats implements Network.
func (m *Mem) Stats() Stats { return m.stats.snapshot() }

// Close stops the scheduler and all dispatch goroutines and returns once
// they have exited; a scheduler in a kernel wait is not interruptible, so
// that takes up to one Latency. Messages still in flight are dropped.
func (m *Mem) Close() {
	m.regMu.Lock()
	if m.closed {
		m.regMu.Unlock()
		return
	}
	m.closed = true
	nodes := make([]*memNode, 0, len(m.nodes))
	for _, n := range m.nodes {
		nodes = append(nodes, n)
	}
	m.regMu.Unlock()
	m.signal()
	for _, n := range nodes {
		n.Close()
	}
	if m.done != nil {
		<-m.done
	}
}

func (m *Mem) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *Mem) send(from NodeID, to NodeID, msg Message) {
	m.stats.record(msg.Kind, msg.ElementUnits())
	m.obsMu.RLock()
	obs := m.observer
	m.obsMu.RUnlock()
	if obs != nil {
		// The observer sees (and may amend) a copy declared inside this
		// branch, so the escape it causes is only paid when a hook is
		// installed — never on the plain hot path.
		c := msg
		obs(from, to, &c)
		msg = c
	}
	if m.cfg.Latency == 0 {
		// Synchronous path: read-lock the registry, resolve the receiver,
		// and enqueue on its private inbox. Senders to different receivers
		// share only the read lock.
		m.regMu.RLock()
		if m.closed || m.down[from] || m.down[to] {
			m.regMu.RUnlock()
			return
		}
		n := m.nodes[to]
		m.regMu.RUnlock()
		if n != nil {
			n.box.enqueue(from, msg)
		}
		return
	}
	m.regMu.RLock()
	blocked := m.closed || m.down[from] || m.down[to]
	m.regMu.RUnlock()
	if blocked {
		return
	}
	if m.line.add(m.cfg.Clock.Now().Add(m.cfg.Latency).UnixNano(), from, to, msg) {
		m.signal()
	}
}

// schedule is the delivery loop used when latency is non-zero. Each pass
// takes the line's mature prefix, hands it to the receivers' mailboxes in
// deadline order, and waits until the new head's deadline: in the kernel
// where clock.KernelWaiter can (Linux, wall clock), on the clock's After
// otherwise. Sends do not cut a wait short — nothing they append can come
// due before the head being waited for. Only an empty line parks on wake.
func (m *Mem) schedule() {
	defer close(m.done)
	sleep := clock.KernelWaiter(m.cfg.Clock)
	var batch []delayEntry
	for {
		m.regMu.RLock()
		closed := m.closed
		m.regMu.RUnlock()
		if closed {
			return
		}
		var next int64
		batch, next = m.line.take(m.cfg.Clock.Now().UnixNano(), batch[:0])
		if len(batch) > 0 {
			m.regMu.RLock()
			for i := range batch {
				e := &batch[i]
				if n := m.nodes[e.to]; n != nil && !m.down[e.to] && !m.down[e.from] {
					n.box.enqueue(e.from, e.msg)
				}
			}
			m.regMu.RUnlock()
			clear(batch) // do not pin delivered payloads
		}
		if next == math.MaxInt64 {
			<-m.wake
			continue
		}
		wait := time.Duration(next - m.cfg.Clock.Now().UnixNano())
		if wait <= 0 {
			continue
		}
		if sleep != nil {
			sleep(wait)
			continue
		}
		select {
		case <-m.wake:
		case <-m.cfg.Clock.After(wait):
		}
	}
}

// memNode is one registered endpoint whose mailbox is drained by a
// dedicated dispatch goroutine, so slow handlers never block the network
// scheduler or other receivers.
type memNode struct {
	net *Mem
	id  NodeID
	box *mailbox
}

var _ Endpoint = (*memNode)(nil)

func newMemNode(net *Mem, id NodeID, h Handler) *memNode {
	return &memNode{net: net, id: id, box: newMailbox(h)}
}

// ID implements Endpoint.
func (n *memNode) ID() NodeID { return n.id }

// Send implements Endpoint.
func (n *memNode) Send(to NodeID, msg Message) error {
	if n.box.isClosed() {
		return ErrClosed
	}
	n.net.send(n.id, to, msg)
	return nil
}

// Close implements Endpoint.
func (n *memNode) Close() error {
	if !n.box.close() {
		return nil
	}
	n.net.regMu.Lock()
	delete(n.net.nodes, n.id)
	n.net.regMu.Unlock()
	<-n.box.done
	return nil
}
