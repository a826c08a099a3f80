package checkpoint

import (
	"slices"
	"sync"
	"time"

	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// maxInFlight bounds how many captured-but-unshipped checkpoints a manager
// may hold: the capture path blocks (backpressure) once this many are
// queued, so a slow store or encode stage throttles the checkpoint cadence
// instead of accumulating unbounded snapshots.
const maxInFlight = 2

// shipJob is one captured checkpoint waiting for its out-of-pause encode
// and ship. Exactly one of snap, delta and part is set.
type shipJob struct {
	seq   uint64
	snap  *subjob.Snapshot
	delta *subjob.Delta
	part  *subjob.Partial
	units int
}

// shipper is the background encode+ship stage shared by the checkpoint
// variants: the pause window only captures state, and the shipper charges
// the modeled checkpoint CPU cost, encodes with the binary snapshot codec,
// and sends the encoded buffer to the store as the message payload — all
// while the PEs are back processing. Jobs are shipped strictly in capture
// order, which the store's delta-chain folding relies on.
//
// The shipper owns every payload it sends until the store acknowledges it
// (DESIGN §11, rule 1): nobody writes to a payload in flight, and the
// store's acknowledgment of seq N hands the payloads of N and every older
// checkpoint back (release), because delivery is FIFO and the store folds
// one checkpoint at a time, so none of them is still read. The next encode
// fills a handed-back buffer that is big enough (take).
type shipper struct {
	cfg    Config
	stream string // subjob.CkptStream of the runtime's subjob
	once   sync.Once
	jobs   chan shipJob
	stop   chan struct{}
	done   chan struct{}

	mu           sync.Mutex
	shipped      int
	fulls        int
	deltas       int
	partials     int
	bytesFull    int64
	bytesDelta   int64
	bytesPartial int64
	encodeTotal  time.Duration
	shipTotal    time.Duration

	// sent holds the payloads shipped and not yet acknowledged, in
	// sequence order; free holds the acknowledged ones waiting for an
	// encode. Both are bounded (see keep): a payload the store never
	// acknowledges (a dropped delta, a store that died) is forgotten once
	// keep newer ones are in flight, and a spare beyond keep is left to
	// the garbage collector.
	sent []sentPayload
	free [][]byte
	keep int
	// spent holds encoded deltas for the next delta capture to refill
	// (takeDelta), at most keep of them.
	spent []*subjob.Delta
}

// sentPayload is one shipped checkpoint's payload.
type sentPayload struct {
	seq uint64
	buf []byte
}

func newShipper(cfg Config) *shipper {
	return &shipper{
		cfg:    cfg,
		stream: subjob.CkptStream(cfg.Runtime.Spec().ID),
		jobs:   make(chan shipJob, maxInFlight),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		// Up to maxInFlight captures wait for the shipper while one payload
		// is encoded and one is with the store: as many buffers as that are
		// ever needed at once when the store keeps up.
		keep: maxInFlight + 2,
	}
}

// enqueue hands a captured checkpoint to the background stage, blocking
// while the in-flight bound is reached. It reports false once the shipper
// is stopped. The goroutine starts lazily so CheckpointNow works on
// managers that were never Start()ed (recovery paths, benchmarks).
func (sh *shipper) enqueue(j shipJob) bool {
	sh.once.Do(func() { go sh.run() })
	select {
	case sh.jobs <- j:
		return true
	case <-sh.stop:
		return false
	}
}

// stopWait stops the background stage and waits for it to exit; queued
// but unshipped checkpoints are dropped (their positions stay pending and
// are subsumed by the next manager's checkpoints). Idempotent.
func (sh *shipper) stopWait() {
	select {
	case <-sh.stop:
		return
	default:
	}
	sh.once.Do(func() { go sh.run() })
	close(sh.stop)
	<-sh.done
}

func (sh *shipper) run() {
	defer close(sh.done)
	for {
		select {
		case <-sh.stop:
			return
		case j := <-sh.jobs:
			sh.process(j)
		}
	}
}

func (sh *shipper) process(j shipJob) {
	rt := sh.cfg.Runtime
	if w := sh.cfg.Costs.work(j.units); w > 0 {
		rt.Machine().CPU().Execute(w)
	}

	clk := sh.cfg.Clock
	t0 := clk.Now()
	var state []byte
	switch {
	case j.snap != nil:
		state = j.snap.AppendTo(sh.take(j.snap.EncodedSize()))
		// The encoded payload holds a copy of every PE state, so the
		// captured buffers are dead: the next capture may fill them.
		rt.ReleaseSnapshot(j.snap)
	case j.part != nil:
		state = j.part.AppendTo(sh.take(j.part.EncodedSize()))
	default:
		state = j.delta.AppendTo(sh.take(j.delta.EncodedSize()))
		// Likewise the delta: the next delta capture refills it.
		sh.mu.Lock()
		if len(sh.spent) < sh.keep {
			sh.spent = append(sh.spent, j.delta)
		}
		sh.mu.Unlock()
	}
	encodeDur := clk.Since(t0)
	// Recorded before the send: the acknowledgment may come back before
	// Send returns.
	sh.mu.Lock()
	if len(sh.sent) == sh.keep {
		sh.sent = append(sh.sent[:0], sh.sent[1:]...)
	}
	sh.sent = append(sh.sent, sentPayload{seq: j.seq, buf: state})
	sh.mu.Unlock()

	t1 := clk.Now()
	rt.Machine().Send(sh.cfg.StoreNode, transport.Message{
		Kind:         transport.KindCheckpoint,
		Stream:       sh.stream,
		Seq:          j.seq,
		State:        state,
		ElementCount: j.units,
	})
	shipDur := clk.Since(t1)

	sh.mu.Lock()
	sh.shipped++
	switch {
	case j.snap != nil:
		sh.fulls++
		sh.bytesFull += int64(len(state))
	case j.part != nil:
		sh.partials++
		sh.bytesPartial += int64(len(state))
	default:
		sh.deltas++
		sh.bytesDelta += int64(len(state))
	}
	sh.encodeTotal += encodeDur
	sh.shipTotal += shipDur
	sh.mu.Unlock()
}

// take returns an empty buffer with room for size bytes: the smallest
// acknowledged payload that is big enough, or a fresh one with an eighth
// to spare, so that the next checkpoint of about the same size fits it.
func (sh *shipper) take(size int) []byte {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	best := -1
	for i, b := range sh.free {
		if cap(b) >= size && (best < 0 || cap(b) < cap(sh.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, 0, size+size/8)
	}
	b := sh.free[best]
	last := len(sh.free) - 1
	sh.free[best], sh.free[last] = sh.free[last], nil
	sh.free = sh.free[:last]
	return b[:0]
}

// takeDelta returns an encoded delta for a capture to refill, or nil.
func (sh *shipper) takeDelta() *subjob.Delta {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(sh.spent)
	if n == 0 {
		return nil
	}
	d := sh.spent[n-1]
	sh.spent[n-1] = nil
	sh.spent = sh.spent[:n-1]
	return d
}

// release hands back the payloads of checkpoint seq and every older one:
// the store has acknowledged seq, so it reads none of them any more. When
// more spares are kept than keep, the smallest go.
func (sh *shipper) release(seq uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for n < len(sh.sent) && sh.sent[n].seq <= seq {
		sh.free = append(sh.free, sh.sent[n].buf)
		n++
	}
	if n == 0 {
		return
	}
	rest := copy(sh.sent, sh.sent[n:])
	clear(sh.sent[rest:])
	sh.sent = sh.sent[:rest]
	if len(sh.free) > sh.keep {
		slices.SortFunc(sh.free, func(a, b []byte) int { return cap(b) - cap(a) })
		clear(sh.free[sh.keep:])
		sh.free = sh.free[:sh.keep]
	}
}

// statsInto merges the shipper's encode/ship timings and full-vs-delta
// volume counters into a manager's stats view.
func (sh *shipper) statsInto(st *ManagerStats) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st.Fulls = sh.fulls
	st.Deltas = sh.deltas
	st.Partials = sh.partials
	st.BytesFull = sh.bytesFull
	st.BytesDelta = sh.bytesDelta
	st.BytesPartial = sh.bytesPartial
	if sh.shipped > 0 {
		st.MeanEncodeMS = float64(sh.encodeTotal) / float64(sh.shipped) / 1e6
		st.MeanShipMS = float64(sh.shipTotal) / float64(sh.shipped) / 1e6
	}
	if sh.fulls > 0 && sh.deltas > 0 {
		st.DeltaRatio = (float64(sh.bytesDelta) / float64(sh.deltas)) /
			(float64(sh.bytesFull) / float64(sh.fulls))
	}
}
