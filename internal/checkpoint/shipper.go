package checkpoint

import (
	"sync"
	"time"

	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// defaultMaxInFlight bounds how many captured-but-unshipped checkpoints a
// manager may hold: the capture path blocks (backpressure) once this many
// are queued, so a slow store or encode stage throttles the checkpoint
// cadence instead of accumulating unbounded snapshots.
const defaultMaxInFlight = 2

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
// the modeled checkpoint CPU cost, encodes with the binary snapshot codec
// into a fresh exact-size buffer, and sends that buffer to the store as the
// message payload — all while the PEs are back processing. The payload is
// the checkpoint's one allocation and is immutable once sent: the Mem
// transport passes it by reference and every receiver decodes by aliasing
// it. Jobs are shipped strictly in capture order, which the store's
// delta-chain folding relies on.
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

	// lastFullBytes and deltaSinceFull drive the adaptive rebase policy:
	// once the deltas shipped since the last full snapshot outweigh that
	// snapshot, rebasing is cheaper than letting the chain grow.
	lastFullBytes  int64
	deltaSinceFull int64
}

func newShipper(cfg Config) *shipper {
	depth := cfg.MaxInFlight
	if depth <= 0 {
		depth = defaultMaxInFlight
	}
	return &shipper{
		cfg:    cfg,
		stream: subjob.CkptStream(cfg.Runtime.Spec().ID),
		jobs:   make(chan shipJob, depth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
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
		state = j.snap.AppendTo(make([]byte, 0, j.snap.EncodedSize()))
		// The encoded payload holds a copy of every PE state, so the
		// captured buffers are dead: the next capture may fill them.
		rt.ReleaseSnapshot(j.snap)
	case j.part != nil:
		state = j.part.AppendTo(make([]byte, 0, j.part.EncodedSize()))
	default:
		state = j.delta.AppendTo(make([]byte, 0, j.delta.EncodedSize()))
	}
	encodeDur := clk.Since(t0)

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
		sh.lastFullBytes = int64(len(state))
		sh.deltaSinceFull = 0
	case j.part != nil:
		sh.partials++
		sh.bytesPartial += int64(len(state))
	default:
		sh.deltas++
		sh.bytesDelta += int64(len(state))
		sh.deltaSinceFull += int64(len(state))
	}
	sh.encodeTotal += encodeDur
	sh.shipTotal += shipDur
	sh.mu.Unlock()
}

// rebaseDue reports whether the adaptive rebase budget is exhausted: the
// cumulative delta bytes shipped since the last full snapshot have reached
// that snapshot's size. The decision trails the capture path by whatever
// is queued on the shipper (at most MaxInFlight deltas), which only delays
// the rebase by that many checkpoints.
func (sh *shipper) rebaseDue() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lastFullBytes > 0 && sh.deltaSinceFull >= sh.lastFullBytes
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
