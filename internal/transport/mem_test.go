package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"streamha/internal/element"
)

// collector accumulates delivered messages.
type collector struct {
	mu   sync.Mutex
	got  []Message
	from []NodeID
}

func (c *collector) handle(from NodeID, msg Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, msg)
	c.from = append(c.from, from)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) waitFor(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.count() >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]Message(nil), c.got...)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages (have %d)", n, c.count())
	return nil
}

func TestSendDeliversSynchronouslyAtZeroLatency(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	var c collector
	_, err := net.Register("b", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.Register("a", func(NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", Message{Kind: KindData, Stream: "s"}); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 1)
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	if _, err := net.Register("x", func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register("x", func(NodeID, Message) {}); err != ErrDuplicateNode {
		t.Fatalf("got %v, want ErrDuplicateNode", err)
	}
}

func TestPerPairFIFOWithLatency(t *testing.T) {
	net := NewMem(MemConfig{Latency: 500 * time.Microsecond})
	defer net.Close()
	var c collector
	if _, err := net.Register("dst", c.handle); err != nil {
		t.Fatal(err)
	}
	src, _ := net.Register("src", func(NodeID, Message) {})
	const n = 100
	for i := 1; i <= n; i++ {
		_ = src.Send("dst", Message{Kind: KindAck, Seq: uint64(i)})
	}
	got := c.waitFor(t, n)
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d: reordering", i, m.Seq)
		}
	}
}

// TestLatencyFIFOManySenders is the per-pair FIFO contract under the
// delay line with concurrent senders. The burst case keeps the line full;
// the paced case lets it run empty again and again while senders are
// still coming, which is where a scheduler that parks on an empty line and
// ignores sends while it waits for the head could lose a wake-up (seen as
// a delivery that never comes). Run with -race in CI.
func TestLatencyFIFOManySenders(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latency time.Duration
		pause   time.Duration // upper bound of a sender's pause every 10 sends
	}{
		{"burst-300us", 300 * time.Microsecond, 0},
		{"paced-200us", 200 * time.Microsecond, 600 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testLatencyFIFOManySenders(t, tc.latency, tc.pause)
		})
	}
}

func testLatencyFIFOManySenders(t *testing.T, latency, pause time.Duration) {
	net := NewMem(MemConfig{Latency: latency})
	defer net.Close()

	type rec struct {
		mu   sync.Mutex
		last map[NodeID]uint64
		n    int
	}
	r := rec{last: map[NodeID]uint64{}}
	if _, err := net.Register("dst", func(from NodeID, msg Message) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if msg.Seq <= r.last[from] {
			t.Errorf("sender %s: seq %d after %d", from, msg.Seq, r.last[from])
		}
		r.last[from] = msg.Seq
		r.n++
	}); err != nil {
		t.Fatal(err)
	}

	const senders = 8
	const perSender = 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Register(NodeID(fmt.Sprintf("src%d", s)), func(NodeID, Message) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 1; i <= perSender; i++ {
				_ = ep.Send("dst", Message{Kind: KindAck, Seq: uint64(i)})
				if pause > 0 && i%10 == 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(pause))))
				}
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		n := r.n
		r.mu.Unlock()
		if n == senders*perSender {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", n, senders*perSender)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const lat = 20 * time.Millisecond
	net := NewMem(MemConfig{Latency: lat})
	defer net.Close()
	var c collector
	if _, err := net.Register("dst", c.handle); err != nil {
		t.Fatal(err)
	}
	src, _ := net.Register("src", func(NodeID, Message) {})
	start := time.Now()
	_ = src.Send("dst", Message{Kind: KindPing})
	c.waitFor(t, 1)
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("delivered after %v, want >= %v", elapsed, lat)
	}
}

func TestDownNodeDropsTraffic(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	var c collector
	if _, err := net.Register("dst", c.handle); err != nil {
		t.Fatal(err)
	}
	src, _ := net.Register("src", func(NodeID, Message) {})
	net.SetDown("dst", true)
	_ = src.Send("dst", Message{Kind: KindData})
	net.SetDown("src", true)
	net.SetDown("dst", false)
	_ = src.Send("dst", Message{Kind: KindData})
	time.Sleep(10 * time.Millisecond)
	if c.count() != 0 {
		t.Fatalf("down node received %d messages", c.count())
	}
	net.SetDown("src", false)
	_ = src.Send("dst", Message{Kind: KindData})
	c.waitFor(t, 1)
}

func TestSendToUnknownNodeIsSilent(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	src, _ := net.Register("src", func(NodeID, Message) {})
	if err := src.Send("nobody", Message{Kind: KindData}); err != nil {
		t.Fatalf("send to unknown: %v", err)
	}
}

func TestClosedEndpointRefusesSend(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	src, _ := net.Register("src", func(NodeID, Message) {})
	_ = src.Close()
	if err := src.Send("x", Message{}); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestStatsCountElements(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	if _, err := net.Register("dst", func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
	src, _ := net.Register("src", func(NodeID, Message) {})
	_ = src.Send("dst", Message{Kind: KindData, Elements: make([]element.Element, 7)})
	_ = src.Send("dst", Message{Kind: KindCheckpoint, ElementCount: 11})
	_ = src.Send("dst", Message{Kind: KindAck, Seq: 3})
	_ = src.Send("dst", Message{Kind: KindPing})

	s := net.Stats()
	if s.Elements[KindData] != 7 {
		t.Fatalf("data elements %d", s.Elements[KindData])
	}
	if s.Elements[KindCheckpoint] != 11 {
		t.Fatalf("checkpoint elements %d", s.Elements[KindCheckpoint])
	}
	if s.TotalElements() != 18 {
		t.Fatalf("total %d", s.TotalElements())
	}
	if s.TotalMessages() != 4 {
		t.Fatalf("messages %d", s.TotalMessages())
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Messages: map[Kind]int64{KindData: 5}, Elements: map[Kind]int64{KindData: 50}}
	b := Stats{Messages: map[Kind]int64{KindData: 2}, Elements: map[Kind]int64{KindData: 20}}
	d := a.Sub(b)
	if d.Messages[KindData] != 3 || d.Elements[KindData] != 30 {
		t.Fatalf("delta %+v", d)
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	if _, err := net.Register("dst", func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
	src, _ := net.Register("src", func(NodeID, Message) {})
	var seen int64
	var mu sync.Mutex
	net.SetObserver(func(from, to NodeID, msg *Message) {
		mu.Lock()
		defer mu.Unlock()
		if to == "dst" {
			seen += int64(msg.ElementUnits())
		}
	})
	_ = src.Send("dst", Message{Kind: KindData, Elements: make([]element.Element, 4)})
	net.SetObserver(nil)
	_ = src.Send("dst", Message{Kind: KindData, Elements: make([]element.Element, 4)})
	mu.Lock()
	defer mu.Unlock()
	if seen != 4 {
		t.Fatalf("observer saw %d element units, want 4", seen)
	}
}

func TestMessageElementUnits(t *testing.T) {
	cases := []struct {
		msg  Message
		want int
	}{
		{Message{Kind: KindData, Elements: make([]element.Element, 3)}, 3},
		{Message{Kind: KindCheckpoint, ElementCount: 9}, 9},
		{Message{Kind: KindReadStateResp, ElementCount: 5}, 5},
		{Message{Kind: KindAck, Seq: 100}, 0},
		{Message{Kind: KindPing}, 0},
		{Message{Kind: KindControl}, 0},
	}
	for _, c := range cases {
		if got := c.msg.ElementUnits(); got != c.want {
			t.Fatalf("%v: got %d want %d", c.msg.Kind, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || Kind(99).String() == "" {
		t.Fatal("Kind.String broken")
	}
}
