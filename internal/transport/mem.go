package transport

import (
	"math"
	"sync"
	"sync/atomic"
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
// messages are released by a single scheduler goroutine in (deadline, send
// order) and handed to a per-receiver dispatch goroutine that invokes the
// handler sequentially. A message is never delivered before its Latency has
// passed; how soon after depends on where the scheduler can wait (see
// schedule): on Linux with the wall clock a 200 µs hop takes about 0.23 ms,
// elsewhere a runtime timer makes it about 1.1 ms when the process is
// otherwise idle.
//
// Delivery is sharded per receiver: the node registry is guarded by a
// read/write lock the hot send path only read-locks, and each receiver has
// its own inbox lock, so concurrent senders to different nodes never
// contend on a common exclusive lock. The latency scheduler is a timing
// wheel (see wheel.go) whose buckets are individually locked, so delayed
// sends append in O(1) without a global scheduler mutex.
type Mem struct {
	cfg MemConfig

	// regMu guards the node registry and liveness flags. Sends take it in
	// read mode; registration, failure injection and shutdown — all rare —
	// take it in write mode.
	regMu  sync.RWMutex
	nodes  map[NodeID]*memNode
	down   map[NodeID]bool
	closed bool

	// wheel is the latency scheduler's pending-delivery timing wheel. It is
	// nil when Latency is zero. laneSeq assigns each registered node a
	// stable wheel lane, round-robin (guarded by regMu).
	wheel   *timingWheel
	laneSeq int
	// wake unparks the scheduler. It is signalled by Close, and by a send
	// only while idle says the scheduler found the wheel empty: a scheduler
	// waiting for a tick needs no wake-up, because every deadline is
	// now + Latency and so nothing sent during the wait can mature before
	// the tick being waited for. done is closed when the scheduler exits.
	wake chan struct{}
	idle atomic.Bool
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
		m.wheel = newTimingWheel(cfg.Latency)
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
	n.lane = m.laneSeq
	m.laneSeq++
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

func (m *Mem) send(lane int, from NodeID, to NodeID, msg Message) {
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
	m.wheel.add(m.cfg.Clock.Now().Add(m.cfg.Latency), lane, from, to, msg)
	if m.idle.Load() {
		m.signal()
	}
}

// schedule is the delivery loop used when latency is non-zero. Each pass
// collects every mature wheel batch in delivery order, hands the entries
// to the receivers' mailboxes, and waits until the earliest pending tick:
// in the kernel where clock.KernelWaiter can (Linux, wall clock), on the clock's
// After otherwise. Sends do not cut a wait short — the tick being waited
// for is the earliest any of them can mature at — so an entry whose sender
// stalled between its clock read and its append is released on the next
// pass, at most one Latency late. Only an empty wheel parks on wake.
func (m *Mem) schedule() {
	defer close(m.done)
	sleep := clock.KernelWaiter(m.cfg.Clock)
	deliver := func(entries []wheelEntry) {
		m.regMu.RLock()
		defer m.regMu.RUnlock()
		for i := range entries {
			e := &entries[i]
			if n := m.nodes[e.to]; n != nil && !m.down[e.to] && !m.down[e.from] {
				n.box.enqueue(e.from, e.msg)
			}
		}
	}
	for {
		m.regMu.RLock()
		closed := m.closed
		m.regMu.RUnlock()
		if closed {
			return
		}
		next := m.wheel.collect(m.cfg.Clock.Now(), deliver)
		if next == math.MaxInt64 {
			// Announce the park before re-checking for an entry added
			// since collect looked: the sender either sees idle and
			// signals, or its entry is seen here.
			m.idle.Store(true)
			if !m.wheel.addedSinceCollect() {
				<-m.wake
			}
			m.idle.Store(false)
			continue
		}
		wait := m.wheel.timeAt(next).Sub(m.cfg.Clock.Now())
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
	net  *Mem
	id   NodeID
	lane int // stable wheel lane; see wheelLanes
	box  *mailbox
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
	n.net.send(n.lane, n.id, to, msg)
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
