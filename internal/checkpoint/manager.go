// Package checkpoint implements the checkpoint manager of the paper in its
// three variants — sweeping checkpointing (Section III, adopted from the
// authors' earlier work) and the synchronous and individual variants it is
// compared against, one manager core with a trigger and a capture plan
// each — and the state stores that hold checkpoints on secondary machines.
//
// A checkpoint manager drives one subjob copy's pause → capture → resume
// cycle and hands the captured state to a background shipper that charges
// the modeled encode cost, serializes with the binary snapshot codec, and
// ships to a store; once the store confirms, cumulative acknowledgments go
// upstream, which trim upstream output queues. Under sweeping
// checkpointing a trim in turn triggers an immediate checkpoint of the
// trimmed subjob, so one sweep initiated at the most-downstream subjob
// propagates checkpoints all the way upstream.
//
// With Config.RebaseEvery ≥ 2 the managers checkpoint incrementally: most
// sweeps capture only the state that changed since the previous checkpoint
// (per-PE byte-range patches plus the output queue's newly published
// suffix) and every RebaseEvery-th checkpoint is a full snapshot that
// re-bases the store's folded image. Deltas chain by sequence number; a
// store that cannot fold a delta drops it without acknowledging and
// reports the break, on which the lifecycle forces the next checkpoint
// full (ForceFull). A manager whose pending-ack window grows past 16
// checkpoints rebases too, in case a break went unreported.
package checkpoint

import (
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// Costs models the CPU cost of taking and encoding one checkpoint. The
// defaults reproduce the relative magnitudes of the paper's testbed
// (checkpointing is cheap but not free).
type Costs struct {
	// Base is charged per checkpoint regardless of size.
	Base time.Duration
	// PerUnit is charged per element-equivalent in the snapshot.
	PerUnit time.Duration
	// Disabled makes checkpoints genuinely free. A zero-valued Costs is
	// replaced by DefaultCosts, so benchmarks that want to measure the real
	// encode path without the simulated CPU charge set Disabled instead.
	Disabled bool
}

// DefaultCosts are used when a Costs field is zero.
var DefaultCosts = Costs{Base: 200 * time.Microsecond, PerUnit: 2 * time.Microsecond}

func (c Costs) orDefault() Costs {
	if c.Disabled {
		return Costs{Disabled: true}
	}
	if c.Base == 0 && c.PerUnit == 0 {
		return DefaultCosts
	}
	return c
}

// work returns the modeled CPU cost of a checkpoint of the given size.
func (c Costs) work(units int) time.Duration {
	if c.Disabled {
		return 0
	}
	return c.Base + c.PerUnit*time.Duration(units)
}

// Config configures a checkpoint manager.
type Config struct {
	// Runtime is the subjob copy being checkpointed.
	Runtime *subjob.Runtime
	// Clock is the time source.
	Clock clock.Clock
	// Interval is the checkpoint interval (the paper sweeps it from 100 ms
	// to 900 ms; experiments here run at one-fifth scale). Sweeping ticks
	// only to seed a sweep in a period without any checkpoint, so after
	// trims stop its next checkpoint comes within 2 × Interval.
	Interval time.Duration
	// StoreNode is the machine holding the secondary state (a Store or a
	// hybrid standby runtime). Store acknowledgments from any other node
	// are ignored.
	StoreNode transport.NodeID
	// Costs models checkpoint CPU cost.
	Costs Costs
	// RebaseEvery enables incremental checkpointing: when ≥ 2, up to
	// RebaseEvery-1 delta checkpoints are taken between full snapshots.
	// 0 or 1 captures a full snapshot every time (the classic protocol). A
	// count no chain reaches (the passive preset passes the largest int)
	// never rebases on a count: a full goes out only when one is needed —
	// the manager's first capture, ForceFull, Resume, or more than 16
	// checkpoints awaiting the store's acknowledgment.
	RebaseEvery int
	// SeqBase seeds the checkpoint sequence counter. A cold restart that
	// restored catalog sequence N passes N here so new checkpoints continue
	// the chain at N+1 instead of colliding with cataloged history. The
	// first checkpoint after a restart is automatically full (no delta
	// baseline survives the process), so the chain re-roots cleanly. A
	// manager also continues past every number an earlier manager on the
	// same Runtime assigned (subjob.Runtime.NextCheckpointSeq).
	SeqBase uint64
	// Partial switches the manager to bounded-error checkpointing (the
	// approx standby policy): after an initial full snapshot every sweep
	// captures an unchained partial frame — hot state ranges only, no
	// output queue, no pipes — instead of a full or chained delta.
	// ForceFull/Resume still force the next capture full.
	Partial bool
}

// Core is the one checkpoint manager behind the paper's three variants. It
// owns everything they share: start/stop and the runtime's two hooks, the
// capture → sequence → shipper hand-off, the pending-ack window, the
// full/delta/partial cadence, pause/resume and the statistics. A variant
// supplies only what Section III varies — a trigger (what fires a
// checkpoint) and a capture plan (what one checkpoint holds); see
// variants.go.
type Core struct {
	cfg     Config
	trigger trigger
	plan    capturePlan
	// trig carries trim events to the loop; one deep, so trims during a
	// capture collapse into one follow-up checkpoint.
	trig     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	ship     *shipper

	// capMu serializes capture → sequence assignment → shipper handoff, so
	// checkpoints enter the shipper in sequence order (the delta chain the
	// store folds depends on it).
	capMu sync.Mutex

	mu          sync.Mutex
	seq         uint64
	pending     map[uint64]map[string]uint64 // checkpoint seq -> positions to release upstream
	taken       int
	byCause     [numCauses]int
	pauseTotal  time.Duration
	lastUnits   int
	unitsTotal  int64
	sinceFull   int
	lastOutNext uint64
	fullNext    bool
	paused      bool
	started     bool
}

// cause is what initiated a checkpoint, counted for ManagerStats.
type cause int

const (
	byCall  cause = iota // an explicit CheckpointNow
	byTrim               // the output queue's trim hook
	byTimer              // the interval ticker
	numCauses
)

func newCore(cfg Config, t trigger, p capturePlan) *Core {
	cfg.Costs = cfg.Costs.orDefault()
	return &Core{
		cfg:     cfg,
		trigger: t,
		plan:    p,
		seq:     cfg.SeqBase,
		trig:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		ship:    newShipper(cfg),
		pending: make(map[uint64]map[string]uint64),
	}
}

// hooks records which started manager owns each runtime's hooks: the output
// queue's trim callback and the machine's store-ack handler. Both are keyed
// by subjob, not by manager, and a re-arm starts the successor on the live
// primary runtime while the predecessor's Stop may still be in flight — so
// Stop may not clear them by name. It releases them only while its manager
// is still the recorded owner; a later Start has taken both over.
var hooks = struct {
	sync.Mutex
	owner map[*subjob.Runtime]*Core
}{owner: make(map[*subjob.Runtime]*Core)}

// Start launches the manager. It takes over the runtime's store-ack
// handler (and, trim-triggered, its trim hook), then launches the trigger
// loop.
func (m *Core) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()

	rt := m.cfg.Runtime
	hooks.Lock()
	hooks.owner[rt] = m
	if m.trigger == onTrim {
		rt.Out().SetOnTrim(func() {
			select {
			case m.trig <- struct{}{}:
			default:
			}
		})
	}
	rt.Machine().RegisterStream(subjob.CkptAckStream(rt.Spec().ID), m.onStoreAck)
	hooks.Unlock()
	go m.run()
}

// Stop halts the manager: it waits for the trigger loop and the shipper,
// then releases the runtime's hooks if this manager still owns them.
func (m *Core) Stop() {
	m.mu.Lock()
	started := m.started
	m.mu.Unlock()
	if started {
		m.stopOnce.Do(func() { close(m.stop) })
		<-m.done
	}
	m.ship.stopWait()

	rt := m.cfg.Runtime
	hooks.Lock()
	defer hooks.Unlock()
	if hooks.owner[rt] != m {
		return
	}
	delete(hooks.owner, rt)
	if m.trigger == onTrim {
		rt.Out().SetOnTrim(nil)
	}
	rt.Machine().UnregisterStream(subjob.CkptAckStream(rt.Spec().ID))
}

// run is the trigger loop.
func (m *Core) run() {
	defer close(m.done)
	// Independent per-PE timers are modeled as a single loop firing n
	// evenly-phased sub-ticks per interval, each checkpointing one PE.
	n := 1
	if m.trigger == onPETick {
		if n = len(m.cfg.Runtime.PEs()); n == 0 {
			return
		}
	}
	t := m.cfg.Clock.NewTicker(m.cfg.Interval / time.Duration(n))
	defer t.Stop()
	// Under sweeping the ticker only seeds a sweep: a tick captures only if
	// no trim or CheckpointNow was taken since the previous tick, so a trim
	// that comes a little late is not doubled by a timer sweep.
	var seen int // untimed checkpoints as of the previous tick
	for i := 0; ; {
		select {
		case <-m.stop:
			return
		case <-m.trig: // fed by the trim hook, which only onTrim installs
			m.capture(0, byTrim)
		case <-t.C():
			if m.trigger == onTrim {
				m.mu.Lock()
				untimed := m.taken - m.byCause[byTimer]
				m.mu.Unlock()
				if untimed != seen {
					seen = untimed
					continue
				}
			}
			m.capture(i%n, byTimer)
			i++
		}
	}
}

// maxPendingDeltas bounds the pending-ack window a delta may be taken
// with: more unacknowledged checkpoints than this mean the store is
// dropping deltas (an unfoldable chain it did not report) or has stopped
// acknowledging, so the next checkpoint is full.
const maxPendingDeltas = 16

// wantDeltaLocked decides whether the next checkpoint may be incremental:
// incremental checkpointing is on, a full baseline exists, the rebase
// count has not come due, and the store is keeping up (at most
// maxPendingDeltas checkpoints await its acknowledgment).
func (m *Core) wantDeltaLocked() bool {
	return m.cfg.RebaseEvery >= 2 && m.lastOutNext != 0 &&
		m.sinceFull < m.cfg.RebaseEvery-1 && len(m.pending) <= maxPendingDeltas
}

// capture takes one checkpoint: pause, run the variant's capture plan for
// target, resume, then hand off to the background shipper. The upstream
// acknowledgment is deferred until the store confirms.
func (m *Core) capture(target int, by cause) time.Duration {
	rt := m.cfg.Runtime
	if rt.Machine().Crashed() {
		return 0
	}
	m.capMu.Lock()
	defer m.capMu.Unlock()

	m.mu.Lock()
	if m.paused {
		m.mu.Unlock()
		return 0
	}
	// The first capture in partial mode is still a full snapshot: it seeds
	// the standby's baseline image that later hot-range frames patch.
	w := want{
		partial:  m.cfg.Partial && !m.fullNext && m.lastOutNext != 0,
		delta:    !m.cfg.Partial && !m.fullNext && m.wantDeltaLocked(),
		outSince: m.lastOutNext,
	}
	m.fullNext = false
	m.mu.Unlock()
	if w.delta {
		w.reuse = m.ship.takeDelta()
	}

	start := m.cfg.Clock.Now()
	var j shipJob
	var ack map[string]uint64
	rt.WithPaused(func() { j, ack = m.plan.capture(&m.cfg, target, w) })
	paused := m.cfg.Clock.Since(start)

	m.mu.Lock()
	prev := m.seq
	m.seq = rt.NextCheckpointSeq(prev)
	j.seq = m.seq
	switch {
	case j.part != nil:
		// Partials are unchained; they neither extend nor reset the delta
		// chain bookkeeping.
		j.units = j.part.ElementUnits()
		m.lastOutNext = j.part.OutNext
	case j.delta != nil:
		j.delta.PrevSeq = prev
		m.sinceFull++
		j.units = j.delta.ElementUnits()
		if j.delta.HasOutput { // else one PE's share without the output queue
			m.lastOutNext = j.delta.Output.NextSeq
		}
	default:
		m.sinceFull = 0
		j.units = j.snap.ElementUnits()
		m.lastOutNext = j.snap.Output.NextSeq
	}
	if ack != nil {
		m.pending[j.seq] = ack
	}
	m.taken++
	m.byCause[by]++
	m.pauseTotal += paused
	m.lastUnits = j.units
	m.unitsTotal += int64(j.units)
	m.mu.Unlock()

	m.ship.enqueue(j)
	return paused
}

// onStoreAck releases the upstream acknowledgment for a stored checkpoint:
// the data it covers is now recoverable, so upstream may trim it. It also
// hands the payloads up to that checkpoint back to the shipper. Only the
// manager's own store is heard: an acknowledgment from any other node
// (a predecessor's store winding down, a stray) releases nothing.
func (m *Core) onStoreAck(from transport.NodeID, msg transport.Message) {
	if from != m.cfg.StoreNode {
		return
	}
	m.ship.release(msg.Seq)
	m.mu.Lock()
	positions, ok := m.pending[msg.Seq]
	if ok {
		delete(m.pending, msg.Seq)
		// Older unacked checkpoints are subsumed by this one.
		for seq := range m.pending {
			if seq < msg.Seq {
				delete(m.pending, seq)
			}
		}
	}
	m.mu.Unlock()
	if ok {
		m.cfg.Runtime.AckUpstream(positions)
	}
}

// ForceFull makes the next checkpoint a full snapshot regardless of the
// incremental cadence — the rebase a standby-side store requests after
// reporting a broken delta chain.
func (m *Core) ForceFull() {
	m.mu.Lock()
	m.fullNext = true
	m.mu.Unlock()
}

// Pause suspends checkpointing. A live rescaling pauses the donor's
// manager while it drives its own CaptureFull/CaptureDelta chain over the
// same runtime — an interleaved manager capture would reset the runtime's
// per-PE delta tracking and silently corrupt both chains. Taking capMu
// waits out any in-flight capture, so when Pause returns no manager
// capture is running or will run.
func (m *Core) Pause() {
	m.capMu.Lock()
	defer m.capMu.Unlock()
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()
}

// Resume re-enables checkpointing and forces the next checkpoint full,
// re-basing the manager's own delta chain past whatever the pause
// interleaved.
func (m *Core) Resume() {
	m.mu.Lock()
	m.paused = false
	m.fullNext = true
	m.mu.Unlock()
}

// Taken returns how many checkpoints were initiated, for tests and
// benchmarks.
func (m *Core) Taken() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.taken
}

// MeanPause returns the average pause duration per checkpoint.
func (m *Core) MeanPause() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.taken == 0 {
		return 0
	}
	return m.pauseTotal / time.Duration(m.taken)
}

// ManagerStats is a JSON-marshalable view of a checkpoint manager's
// activity, exported through the metrics registry. Pause, encode and ship
// are reported separately — the pause is what tuple latency pays, while
// encode and ship overlap with processing on the background shipper.
type ManagerStats struct {
	Subjob string `json:"subjob"`
	Taken  int    `json:"taken"`
	// TrimTriggered and TimerTriggered split Taken by what fired the
	// checkpoint; the remainder are explicit CheckpointNow calls.
	TrimTriggered  int     `json:"trim_triggered"`
	TimerTriggered int     `json:"timer_triggered"`
	Pending        int     `json:"pending_acks"`
	Fulls          int     `json:"fulls_shipped"`
	Deltas         int     `json:"deltas_shipped"`
	Partials       int     `json:"partials_shipped"`
	MeanPauseMS    float64 `json:"mean_pause_ms"`
	MeanEncodeMS   float64 `json:"mean_encode_ms"`
	MeanShipMS     float64 `json:"mean_ship_ms"`
	LastUnits      int     `json:"last_size_units"`
	TotalUnits     int64   `json:"total_size_units"`
	BytesFull      int64   `json:"bytes_full"`
	BytesDelta     int64   `json:"bytes_delta"`
	BytesPartial   int64   `json:"bytes_partial"`
	// DeltaRatio is mean delta bytes over mean full bytes; small is good.
	DeltaRatio float64 `json:"delta_ratio"`
}

// Stats captures the manager's activity for the metrics registry:
// checkpoint counts, pending store acks,
// pause/encode/ship timings and full-vs-delta shipped volume.
func (m *Core) Stats() ManagerStats {
	m.mu.Lock()
	st := ManagerStats{
		Subjob:         m.cfg.Runtime.Spec().ID,
		Taken:          m.taken,
		TrimTriggered:  m.byCause[byTrim],
		TimerTriggered: m.byCause[byTimer],
		Pending:        len(m.pending),
		LastUnits:      m.lastUnits,
		TotalUnits:     m.unitsTotal,
	}
	if m.taken > 0 {
		st.MeanPauseMS = float64(m.pauseTotal) / float64(m.taken) / 1e6
	}
	m.mu.Unlock()
	m.ship.statsInto(&st)
	return st
}
