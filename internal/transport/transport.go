// Package transport moves messages between machines.
//
// It provides a Network abstraction with two implementations: an in-memory
// network with configurable latency and element-level traffic accounting
// (used by experiments and tests), and a TCP network (used by the
// streamha-node daemon for genuine multi-process deployments). High
// availability protocols above this layer only observe message delivery and
// latency, so the two implementations are interchangeable.
package transport

import (
	"errors"
	"fmt"

	"streamha/internal/element"
)

// NodeID names a transport endpoint. Machines, sources, sinks and the
// coordinator each own one endpoint.
type NodeID string

// Kind discriminates the message union.
type Kind int

// Message kinds. The set mirrors the protocol of the paper's system:
// data batches and cumulative acks implement the stream with sweeping
// checkpointing; pings and pongs implement heartbeat failure detection;
// checkpoint and read-state messages implement passive/hybrid standby; and
// control messages carry deployment and switchover commands. The numbers
// are the kind byte on the wire, so they never change; 6 was a read-state
// request that nothing sent.
const (
	KindInvalid       Kind = 0
	KindData          Kind = 1
	KindAck           Kind = 2
	KindPing          Kind = 3
	KindPong          Kind = 4
	KindCheckpoint    Kind = 5
	KindReadStateResp Kind = 7
	KindControl       Kind = 8
)

var kindNames = map[Kind]string{
	KindInvalid:       "invalid",
	KindData:          "data",
	KindAck:           "ack",
	KindPing:          "ping",
	KindPong:          "pong",
	KindCheckpoint:    "checkpoint",
	KindReadStateResp: "read-state-resp",
	KindControl:       "control",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Message is the single wire message type, a discriminated union in the
// style of consensus libraries. Which fields are meaningful depends on Kind:
//
//   - KindData: Stream (link ID) and Elements.
//   - KindAck: Stream and Seq (cumulative acknowledged sequence number).
//   - KindPing/KindPong: Stream (detector session) and Seq (ping number).
//   - KindCheckpoint: Stream (subjob ID), State (encoded snapshot) and
//     ElementCount (snapshot size in element-equivalents, for accounting).
//   - KindReadStateResp: Stream (subjob ID), State, ElementCount.
//   - KindControl: Stream (target subjob ID), Command and Seq.
//
// Messages are fanned out zero-copy: the same Elements backing array may be
// shared by the messages delivered to every subscriber of a stream (and by
// the publisher's own retained reference). Handlers must treat Elements and
// State as immutable; a consumer that needs to mutate or retain them copies
// first (element.CloneBatch).
type Message struct {
	Kind         Kind
	Stream       string
	Seq          uint64
	Command      string
	Elements     []element.Element
	State        []byte
	ElementCount int
}

// ElementUnits returns the size of the message in data-element equivalents,
// the unit used by the paper's "message overhead (# of elements)" axes.
// Control traffic (acks, heartbeats, commands) counts as zero elements.
func (m *Message) ElementUnits() int {
	switch m.Kind {
	case KindData:
		return len(m.Elements)
	case KindCheckpoint, KindReadStateResp:
		return m.ElementCount
	default:
		return 0
	}
}

// Handler receives messages delivered to an endpoint. Handlers for one
// endpoint are invoked sequentially in delivery order; they may block.
type Handler func(from NodeID, msg Message)

// Endpoint is a registered node's sending side.
type Endpoint interface {
	// ID returns the node this endpoint belongs to.
	ID() NodeID
	// Send delivers msg to the node named to. Delivery is asynchronous and
	// FIFO per (sender, receiver) pair. Sending to a down or unknown node
	// silently drops the message, mirroring UDP-like loss on machine
	// failure; stream-level retransmission recovers the data.
	Send(to NodeID, msg Message) error
	// Close unregisters the endpoint.
	Close() error
}

// Network registers endpoints and routes messages between them.
type Network interface {
	// Register creates an endpoint for id whose incoming messages are passed
	// to h. Registering an already-registered id is an error.
	Register(id NodeID, h Handler) (Endpoint, error)
	// SetDown marks a node as down (true) or up (false). Messages to or from
	// a down node are dropped. Used to model machine crashes.
	SetDown(id NodeID, down bool)
	// Stats returns a snapshot of cumulative traffic counters.
	Stats() Stats
}

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrDuplicateNode is returned by Register when the node ID is taken.
var ErrDuplicateNode = errors.New("transport: node already registered")
