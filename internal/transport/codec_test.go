package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"streamha/internal/element"
)

func codecTestMessages() []Message {
	return []Message{
		{},
		{Kind: KindData, Stream: "job/s1", Elements: []element.Element{
			{ID: 1, Origin: 123456789, Seq: 1, Payload: -42},
			{ID: 18446744073709551615, Origin: -1, Seq: 99, Payload: 7},
		}},
		{Kind: KindAck, Stream: "job/s2", Seq: 18446744073709551615},
		{Kind: KindPing, Stream: "det/1", Seq: 3},
		{Kind: KindPong, Stream: "det/1", Seq: 3},
		{Kind: KindCheckpoint, Stream: "job/sj0", State: []byte{0, 1, 2, 255, 128}, ElementCount: 7},
		{Kind: KindReadStateResp, Stream: "job/sj1"},
		{Kind: KindReadStateResp, Stream: "job/sj1", State: bytes.Repeat([]byte{0xAB}, 1000), ElementCount: 250},
		{Kind: KindControl, Stream: "job/sj0", Command: "switchover", Seq: 12},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, want := range codecTestMessages() {
		buf := AppendFrame(nil, "sender-node", "receiver-node", &want)
		from, to, got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("msg %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if from != "sender-node" || to != "receiver-node" {
			t.Fatalf("msg %d: endpoints %q -> %q", i, from, to)
		}
		if !reflect.DeepEqual(normalizeMsg(got), normalizeMsg(want)) {
			t.Fatalf("msg %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// normalizeMsg maps empty slices to nil so DeepEqual compares logical
// content, not allocation shape.
func normalizeMsg(m Message) Message {
	if len(m.Elements) == 0 {
		m.Elements = nil
	}
	if len(m.State) == 0 {
		m.State = nil
	}
	return m
}

func TestFrameStreamConcatenation(t *testing.T) {
	msgs := codecTestMessages()
	var buf []byte
	for i := range msgs {
		buf = AppendFrame(buf, NodeID("a"), NodeID("b"), &msgs[i])
	}
	rest := buf
	for i := range msgs {
		_, _, got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeMsg(got), normalizeMsg(msgs[i])) {
			t.Fatalf("frame %d mismatch", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	msg := Message{Kind: KindData, Stream: "s", Command: "c", Seq: 5,
		State:    []byte{1, 2, 3},
		Elements: []element.Element{{ID: 9, Seq: 1}}}
	full := AppendFrame(nil, "from", "to", &msg)
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, _, err := DecodeFrame(full[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(full))
		}
	}
}

func TestDecodeFrameJunk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		junk := make([]byte, rng.Intn(200))
		rng.Read(junk)
		// Must not panic; errors are fine, and accidental decodes of random
		// bytes are acceptable as long as they terminate.
		_, _, _, _, _ = DecodeFrame(junk)
	}
}

func TestDecodeFrameRejectsOversizedLength(t *testing.T) {
	huge := AppendFrame(nil, "a", "b", &Message{})
	huge[0] = 0xFF // corrupt the length prefix into a longer varint
	if _, _, _, _, err := DecodeFrame(huge); err == nil {
		t.Fatal("corrupt length prefix decoded")
	}
}

func TestDecodeFrameRejectsElementCountOverrun(t *testing.T) {
	msg := Message{Kind: KindData, Elements: []element.Element{{ID: 1}}}
	buf := AppendFrame(nil, "a", "b", &msg)
	// The element count varint is immediately before the 32-byte element
	// body; bump it so it claims more elements than the payload holds.
	buf[len(buf)-element.EncodedSize-1] = 200
	if _, _, _, _, err := DecodeFrame(buf); err == nil {
		t.Fatal("element-count overrun decoded")
	}
}

// framePayload encodes msg and strips the frame's length prefix, leaving
// what serveBinary hands decodeFramePayload.
func framePayload(from, to NodeID, msg *Message) []byte {
	frame := AppendFrame(nil, from, to, msg)
	_, ln := binary.Uvarint(frame)
	return frame[ln:]
}

// TestDecodeInternedNamesAllocations: once a connection's table holds a
// frame's names, decoding a data frame allocates only its element array
// and decoding an ack frame allocates nothing.
func TestDecodeInternedNamesAllocations(t *testing.T) {
	names := make(map[string]string)
	for _, tc := range []struct {
		name string
		msg  Message
		want float64
	}{
		{"data", Message{Kind: KindData, Stream: "data|job/sj1|s0", Elements: make([]element.Element, 64)}, 1},
		{"ack", Message{Kind: KindAck, Stream: "ack|job/sj0|s0", Seq: 77}, 0},
	} {
		payload := framePayload("host-a", "host-b", &tc.msg)
		if _, _, _, err := decodeFramePayload(payload, names); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(100, func() {
			_, _, _, _ = decodeFramePayload(payload, names)
		})
		if got != tc.want {
			t.Errorf("%s frame: %v allocations per decode, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDecodeNameTableCapped: a peer that sends ever new names fills the
// table to its cap and no further; names past the cap are copied, and
// every frame decodes to what was sent.
func TestDecodeNameTableCapped(t *testing.T) {
	names := make(map[string]string)
	decode := func(i int) {
		t.Helper()
		want := Message{Kind: KindData, Stream: fmt.Sprintf("data|sj|s%d", i), Elements: []element.Element{{ID: uint64(i), Seq: 1}}}
		from, to, got, err := decodeFramePayload(framePayload("host-a", "host-b", &want), names)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if from != "host-a" || to != "host-b" || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %q -> %q %+v, want %+v", i, from, to, got, want)
		}
	}
	for i := 0; i < 300; i++ {
		decode(i)
	}
	if len(names) != maxInternedNames {
		t.Fatalf("table holds %d names, want %d", len(names), maxInternedNames)
	}
	decode(299) // not interned: copied again
	decode(0)   // interned
	if len(names) != maxInternedNames {
		t.Fatalf("table grew to %d names", len(names))
	}
}

// startPair builds a listening receiver segment plus a sender segment,
// registers a collector on the receiver, and returns (sender endpoint,
// receiver segment, collector, cleanup).
func startPair(t *testing.T) (Endpoint, *TCP, *collector, func()) {
	t.Helper()
	recv, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := recv.Register("dst", c.handle); err != nil {
		recv.Close()
		t.Fatal(err)
	}
	send, err := NewTCP(TCPConfig{
		Peers: map[NodeID]string{"dst": recv.Addr()},
	})
	if err != nil {
		recv.Close()
		t.Fatal(err)
	}
	src, err := send.Register("src", func(NodeID, Message) {})
	if err != nil {
		send.Close()
		recv.Close()
		t.Fatal(err)
	}
	return src, recv, &c, func() {
		send.Close()
		recv.Close()
	}
}

// TestCrossCodecCompatibility checks how a receiver treats each codec's
// senders. A binary sender's frames are delivered. A connection that
// opens with the retired gob preamble SHG1 is closed before any frame is
// decoded, even a well-formed SHB1 one, and a binary sender that
// connects after it still delivers.
func TestCrossCodecCompatibility(t *testing.T) {
	t.Run("send-binary", func(t *testing.T) {
		src, _, c, cleanup := startPair(t)
		defer cleanup()
		deliversDataAndControl(t, src, c)
	})
	t.Run("send-gob", func(t *testing.T) {
		src, recv, c, cleanup := startPair(t)
		defer cleanup()
		conn, err := net.Dial("tcp", recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		frame := AppendFrame([]byte("SHG1"), "raw", "dst", &Message{Kind: KindControl, Stream: "ctl", Command: "raw"})
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("receiver wrote to a gob connection")
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("receiver kept a gob connection open")
		}
		deliversDataAndControl(t, src, c)
		if st := recv.Stats().Wire; st.FramesRecv != 2 {
			t.Fatalf("receiver decoded %d frames, want 2", st.FramesRecv)
		}
	})
}

// deliversDataAndControl sends a data and a control message from src and
// checks that c receives exactly those two.
func deliversDataAndControl(t *testing.T, src Endpoint, c *collector) {
	t.Helper()
	want := []element.Element{{ID: 7, Origin: 1, Seq: 1, Payload: 64}}
	if err := src.Send("dst", Message{Kind: KindData, Stream: "s", Elements: want}); err != nil {
		t.Fatal(err)
	}
	if err := src.Send("dst", Message{Kind: KindControl, Stream: "ctl", Command: "activate", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	got := c.waitFor(t, 2)
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2: %+v", len(got), got)
	}
	if got[0].Elements[0] != want[0] || got[0].Stream != "s" {
		t.Fatalf("data frame %+v", got[0])
	}
	if got[1].Command != "activate" || got[1].Seq != 2 {
		t.Fatalf("control frame %+v", got[1])
	}
}

func TestUnknownPreambleConnectionDropped(t *testing.T) {
	recv, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var c collector
	if _, err := recv.Register("dst", c.handle); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("JUNKJUNKJUNK")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if c.count() != 0 {
		t.Fatalf("junk connection delivered %d messages", c.count())
	}
}

func TestStrictRoutes(t *testing.T) {
	seg, err := NewTCP(TCPConfig{
		Peers:        map[NodeID]string{"known": "127.0.0.1:1"},
		StrictRoutes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	var c collector
	if _, err := seg.Register("local", c.handle); err != nil {
		t.Fatal(err)
	}
	src, _ := seg.Register("src", func(NodeID, Message) {})
	if err := src.Send("nowhere", Message{Kind: KindData}); err != ErrNoRoute {
		t.Fatalf("unroutable destination: got %v, want ErrNoRoute", err)
	}
	// A routed-but-unreachable peer still drops silently: that models a
	// machine failure, not a misconfiguration.
	if err := src.Send("known", Message{Kind: KindPing}); err != nil {
		t.Fatalf("unreachable peer: got %v, want silent drop", err)
	}
	if err := src.Send("local", Message{Kind: KindData}); err != nil {
		t.Fatalf("local loopback: %v", err)
	}
	c.waitFor(t, 1)
}

func TestWireCounters(t *testing.T) {
	src, recv, c, cleanup := startPair(t)
	defer cleanup()
	const frames = 20
	for i := 1; i <= frames; i++ {
		if err := src.Send("dst", Message{Kind: KindData, Stream: "s", Seq: uint64(i),
			Elements: []element.Element{{ID: uint64(i), Seq: uint64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	c.waitFor(t, frames)

	// Sender-side counters. src's segment is reachable via its endpoint's
	// network; grab it through the recv loopback instead: count on both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rs := recv.Stats().Wire
		if rs.FramesRecv == frames && rs.BytesRecv > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver wire counters %+v", rs)
		}
		time.Sleep(time.Millisecond)
	}

	raw, err := json.Marshal(recv.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"wire"`)) {
		t.Fatalf("TCP stats JSON missing wire section: %s", raw)
	}
}

func TestSenderWireCounters(t *testing.T) {
	recv, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var c collector
	if _, err := recv.Register("dst", c.handle); err != nil {
		t.Fatal(err)
	}
	send, err := NewTCP(TCPConfig{Peers: map[NodeID]string{"dst": recv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	src, _ := send.Register("src", func(NodeID, Message) {})
	const frames = 10
	for i := 0; i < frames; i++ {
		_ = src.Send("dst", Message{Kind: KindAck, Stream: "s", Seq: uint64(i + 1)})
	}
	c.waitFor(t, frames)
	ws := send.Stats().Wire
	if ws.FramesSent != frames {
		t.Fatalf("frames sent %d, want %d", ws.FramesSent, frames)
	}
	if ws.Batches == 0 || ws.Batches > frames {
		t.Fatalf("batches %d out of range [1, %d]", ws.Batches, frames)
	}
	if ws.BytesSent <= int64(magicLen) {
		t.Fatalf("bytes sent %d", ws.BytesSent)
	}
	if ws.FramesDropped != 0 {
		t.Fatalf("dropped %d frames on a healthy link", ws.FramesDropped)
	}
}

func TestMemStatsOmitWireSection(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	if _, err := net.Register("dst", func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
	src, _ := net.Register("src", func(NodeID, Message) {})
	_ = src.Send("dst", Message{Kind: KindData, Elements: make([]element.Element, 2)})
	raw, err := json.Marshal(net.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"wire"`)) {
		t.Fatalf("in-memory stats JSON grew a wire section: %s", raw)
	}
	if !net.Stats().Wire.isZero() {
		t.Fatal("in-memory wire counters moved")
	}
}

func TestUnreachablePeerCountsDrops(t *testing.T) {
	seg, err := NewTCP(TCPConfig{Peers: map[NodeID]string{"b": "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	src, _ := seg.Register("a", func(NodeID, Message) {})
	const frames = 10
	for i := 0; i < frames; i++ {
		_ = src.Send("b", Message{Kind: KindPing})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if seg.Stats().Wire.FramesDropped == frames {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped %d frames, want %d", seg.Stats().Wire.FramesDropped, frames)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPConnCloseWaitsForWriter checks the close()/done contract directly:
// after close returns, the writer goroutine has exited even if frames were
// still queued for an unreachable peer.
func TestTCPConnCloseWaitsForWriter(t *testing.T) {
	var stats counters
	c := newTCPConn("127.0.0.1:1", &stats)
	for i := 0; i < 50; i++ {
		c.write(tcpFrame{From: "a", To: "b", Msg: Message{Kind: KindPing, Seq: uint64(i)}})
	}
	finished := make(chan struct{})
	go func() {
		c.close()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("close() did not return")
	}
	select {
	case <-c.done:
	default:
		t.Fatal("close() returned before the writer exited")
	}
	// Idempotent second close must also return.
	c.close()
}
