package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPConfig configures a TCP network segment: the nodes hosted by this
// process and the addresses of every peer process.
type TCPConfig struct {
	// Listen is the address this process accepts peer connections on
	// (e.g. ":7001"). Empty disables listening (send-only process).
	Listen string
	// Peers maps remote node IDs to the listen addresses of the processes
	// hosting them. Nodes registered locally do not need entries.
	Peers map[NodeID]string
	// StrictRoutes makes Send return ErrNoRoute when the destination is
	// neither hosted locally nor listed in Peers, instead of dropping
	// silently. Messages to known-but-down or unreachable nodes still drop
	// silently: those model machine failures, which the HA layer recovers
	// from; a missing route is a deployment misconfiguration.
	StrictRoutes bool
}

// TCP implements Network over real sockets for genuine multi-process
// deployments. Each process hosts one or more nodes; messages to local
// nodes loop back in-process, messages to remote nodes travel over one
// persistent connection per destination process, encoded with the binary
// wire codec (see codec.go) and written in batches — the writer drains its
// queue into one buffer and flushes it with a single socket write.
//
// Delivery semantics match the in-memory network: FIFO per (sender,
// receiver) pair while a connection lasts, and silent drop when the
// destination is unreachable or down — stream-level retransmission
// recovers the data, exactly as it does after a machine crash.
type TCP struct {
	cfg TCPConfig

	// mu guards the registry and connection tables. The hot send path takes
	// it in read mode; registration, failure injection, lazy dialing and
	// shutdown take it in write mode.
	mu       sync.RWMutex
	locals   map[NodeID]*tcpEndpoint
	down     map[NodeID]bool
	outbound map[string]*tcpConn   // peer address -> connection
	inbound  map[net.Conn]struct{} // accepted connections, closed on Close
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup

	stats counters
}

var _ Network = (*TCP)(nil)

// tcpFrame is the wire unit.
type tcpFrame struct {
	From NodeID
	To   NodeID
	Msg  Message
}

// NewTCP creates a TCP network segment and, if configured, starts
// listening. Call Close to stop.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	t := &TCP{
		cfg:      cfg,
		locals:   make(map[NodeID]*tcpEndpoint),
		down:     make(map[NodeID]bool),
		outbound: make(map[string]*tcpConn),
		inbound:  make(map[net.Conn]struct{}),
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
		t.listener = ln
		t.wg.Add(1)
		go t.accept()
	}
	return t, nil
}

// Addr returns the actual listen address (useful with ":0").
func (t *TCP) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}

// Register implements Network for a node hosted by this process.
func (t *TCP) Register(id NodeID, h Handler) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, ok := t.locals[id]; ok {
		return nil, ErrDuplicateNode
	}
	ep := newTCPEndpoint(t, id, h)
	t.locals[id] = ep
	return ep, nil
}

// SetDown implements Network for locally hosted nodes.
func (t *TCP) SetDown(id NodeID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if down {
		t.down[id] = true
	} else {
		delete(t.down, id)
	}
}

// Stats implements Network.
func (t *TCP) Stats() Stats { return t.stats.snapshot() }

// Close stops the listener, closes every connection and endpoint, and waits
// for the writer and serve goroutines to exit.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	ln := t.listener
	conns := make([]*tcpConn, 0, len(t.outbound))
	for _, c := range t.outbound {
		conns = append(conns, c)
	}
	accepted := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		accepted = append(accepted, c)
	}
	eps := make([]*tcpEndpoint, 0, len(t.locals))
	for _, ep := range t.locals {
		eps = append(eps, ep)
	}
	t.mu.Unlock()

	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		c.close()
	}
	for _, c := range accepted {
		_ = c.Close()
	}
	for _, ep := range eps {
		_ = ep.Close()
	}
	t.wg.Wait()
}

func (t *TCP) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serve(conn)
	}
}

// serve reads the peer's preamble, then decodes inbound frames and
// dispatches them to local endpoints. A connection that does not open
// with SHB1 speaks some other protocol and is dropped.
func (t *TCP) serve(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var magic [magicLen]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != magicBinary {
		return
	}
	// The payload buffer is reused across frames; decodeFramePayload
	// copies out everything it keeps, and names interns the node and
	// stream names, which repeat on every frame of a connection.
	var payload []byte
	names := make(map[string]string)
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil || size > maxWireFrame {
			return
		}
		if uint64(cap(payload)) < size {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		from, to, msg, err := decodeFramePayload(payload, names)
		if err != nil {
			return
		}
		t.stats.wireFramesRecv.Add(1)
		t.stats.wireBytesRecv.Add(int64(uvarintLen(size)) + int64(size))
		t.deliverLocal(from, to, msg)
	}
}

func (t *TCP) deliverLocal(from, to NodeID, msg Message) {
	t.mu.RLock()
	ep := t.locals[to]
	blocked := t.down[to] || t.down[from]
	t.mu.RUnlock()
	if ep == nil || blocked {
		return
	}
	ep.enqueue(from, msg)
}

// send routes a message: loopback for local destinations, socket for
// remote ones, silent drop for unknown or unreachable destinations (or
// ErrNoRoute for unknown ones under StrictRoutes).
func (t *TCP) send(from NodeID, to NodeID, msg Message) error {
	t.stats.record(msg.Kind, msg.ElementUnits())
	t.mu.RLock()
	if t.closed || t.down[from] || t.down[to] {
		t.mu.RUnlock()
		return nil
	}
	if ep := t.locals[to]; ep != nil {
		t.mu.RUnlock()
		ep.enqueue(from, msg)
		return nil
	}
	addr, ok := t.cfg.Peers[to]
	if !ok {
		t.mu.RUnlock()
		if t.cfg.StrictRoutes {
			return ErrNoRoute
		}
		return nil
	}
	c := t.outbound[addr]
	t.mu.RUnlock()
	if c == nil {
		c = t.dial(addr)
		if c == nil {
			return nil
		}
	}
	c.write(tcpFrame{From: from, To: to, Msg: msg})
	return nil
}

// dial creates (or returns the winner of a racing create of) the
// persistent outbound connection for addr. Returns nil if the network
// closed meanwhile.
func (t *TCP) dial(addr string) *tcpConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	c := t.outbound[addr]
	if c == nil {
		c = newTCPConn(addr, &t.stats)
		t.outbound[addr] = c
	}
	return c
}

// tcpConn is one lazily-dialed persistent outbound connection with a
// writer goroutine, so senders never block on the socket. The writer
// drains the queue in batches: each batch dials at most once (dropping the
// batch if the peer is unreachable), encodes every frame into one buffer,
// and hands the buffer to the socket in as few writes as possible.
type tcpConn struct {
	addr  string
	stats *counters

	mu     sync.Mutex
	queue  []tcpFrame
	cond   *sync.Cond
	conn   net.Conn // live socket, mirrored here so close() can interrupt I/O
	closed bool
	done   chan struct{}

	// Writer-goroutine state; touched only by writer.
	sock net.Conn
	wire []byte
}

const (
	// outboundQueueCap bounds buffered frames per peer; beyond it the
	// oldest are dropped, mirroring a congested link.
	outboundQueueCap = 4096
	// tcpDialTimeout bounds one dial attempt, and with it how long close()
	// can block waiting for the writer.
	tcpDialTimeout = 2 * time.Second
	// wireFlushChunk is the encode-buffer size that triggers a mid-batch
	// flush, keeping the buffer bounded under large batches.
	wireFlushChunk = 64 << 10
)

func newTCPConn(addr string, stats *counters) *tcpConn {
	c := &tcpConn{addr: addr, stats: stats, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.writer()
	return c
}

func (c *tcpConn) write(f tcpFrame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if len(c.queue) >= outboundQueueCap {
		c.queue = c.queue[1:]
		c.stats.wireDropped.Add(1)
	}
	c.queue = append(c.queue, f)
	c.cond.Signal()
}

// close marks the connection closed, interrupts any in-flight socket I/O,
// and waits for the writer goroutine to exit, so TCP.Close cannot leak a
// writer mid-flush.
func (c *tcpConn) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	conn := c.conn
	c.cond.Broadcast()
	c.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	<-c.done
}

func (c *tcpConn) writer() {
	defer close(c.done)
	defer c.resetConn()
	// spare is the recycled second frame buffer (see mailbox.dispatch): the
	// drained batch is scrubbed and swapped back in as the next queue, so
	// the writer allocates nothing in steady state.
	var spare []tcpFrame
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		batch := c.queue
		c.queue = spare[:0]
		c.mu.Unlock()

		sent := c.writeBatch(batch)
		if sent > 0 {
			c.stats.wireFramesSent.Add(int64(sent))
			c.stats.wireBatches.Add(1)
		}
		if dropped := len(batch) - sent; dropped > 0 {
			c.stats.wireDropped.Add(int64(dropped))
		}
		// Scrub frame payload references before recycling the buffer.
		for i := range batch {
			batch[i] = tcpFrame{}
		}
		spare = batch
	}
}

// writeBatch encodes and writes one drained batch, dialing at most once.
// It returns how many frames reached the socket; the rest are dropped
// (destination unreachable or connection lost mid-batch).
func (c *tcpConn) writeBatch(batch []tcpFrame) int {
	if c.sock == nil && !c.dialOnce() {
		return 0
	}
	wire := c.wire[:0]
	sent := 0    // frames confirmed written
	pending := 0 // frames encoded into wire, awaiting flush
	for i := range batch {
		f := &batch[i]
		wire = AppendFrame(wire, f.From, f.To, &f.Msg)
		pending++
		if len(wire) >= wireFlushChunk {
			if !c.flush(wire) {
				c.wire = nil
				return sent
			}
			sent += pending
			pending = 0
			wire = wire[:0]
		}
	}
	if len(wire) > 0 {
		if !c.flush(wire) {
			c.wire = nil
			return sent
		}
		sent += pending
	}
	// Keep the encode buffer for the next batch unless a jumbo frame
	// ballooned it.
	if cap(wire) <= 4*wireFlushChunk {
		c.wire = wire[:0]
	} else {
		c.wire = nil
	}
	return sent
}

// flush writes buf to the socket, resetting the connection on error.
func (c *tcpConn) flush(buf []byte) bool {
	if _, err := c.sock.Write(buf); err != nil {
		c.resetConn()
		return false
	}
	c.stats.wireBytesSent.Add(int64(len(buf)))
	return true
}

// dialOnce attempts one dial, sends the SHB1 preamble, and installs the
// socket. It reports whether the connection is usable.
func (c *tcpConn) dialOnce() bool {
	d, err := net.DialTimeout("tcp", c.addr, tcpDialTimeout)
	if err != nil {
		return false
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = d.Close()
		return false
	}
	c.conn = d
	c.mu.Unlock()
	if _, err := d.Write([]byte(magicBinary)); err != nil {
		c.sock = d
		c.resetConn()
		return false
	}
	c.stats.wireBytesSent.Add(magicLen)
	c.sock = d
	return true
}

// resetConn tears down the current socket after an error or at exit.
func (c *tcpConn) resetConn() {
	if c.sock == nil {
		return
	}
	_ = c.sock.Close()
	c.sock = nil
	c.mu.Lock()
	c.conn = nil
	c.mu.Unlock()
}

// tcpEndpoint is a locally hosted node on a TCP segment. Its inbox is the
// same recycled-batch mailbox the in-memory transport uses.
type tcpEndpoint struct {
	net *TCP
	id  NodeID
	box *mailbox
}

var _ Endpoint = (*tcpEndpoint)(nil)

func newTCPEndpoint(net *TCP, id NodeID, h Handler) *tcpEndpoint {
	return &tcpEndpoint{net: net, id: id, box: newMailbox(h)}
}

// ID implements Endpoint.
func (ep *tcpEndpoint) ID() NodeID { return ep.id }

// Send implements Endpoint.
func (ep *tcpEndpoint) Send(to NodeID, msg Message) error {
	if ep.box.isClosed() {
		return ErrClosed
	}
	return ep.net.send(ep.id, to, msg)
}

// Close implements Endpoint.
func (ep *tcpEndpoint) Close() error {
	if !ep.box.close() {
		return nil
	}
	ep.net.mu.Lock()
	delete(ep.net.locals, ep.id)
	ep.net.mu.Unlock()
	<-ep.box.done
	return nil
}

func (ep *tcpEndpoint) enqueue(from NodeID, msg Message) {
	ep.box.enqueue(from, msg)
}

// ErrNoRoute reports an unroutable destination under
// TCPConfig.StrictRoutes. Without StrictRoutes, sends to unknown nodes
// drop silently for symmetry with machine failures.
var ErrNoRoute = errors.New("transport: no route to node")
