package checkpoint

import "streamha/internal/subjob"

// trigger is what fires a variant's checkpoints; Core.run implements each.
type trigger int

const (
	onTrim   trigger = iota // the output queue's trim hook; a ticker of period Interval seeds a sweep only after a period without any checkpoint
	onTick                  // one subjob-wide ticker of period Interval
	onPETick                // a timer per PE: Interval/len(PEs) apart, rotating over the PEs
)

// capturePlan is what one checkpoint of a variant holds.
type capturePlan struct {
	// input: the checkpoint includes the input queue, so the positions it
	// covers and acknowledges are the queue's accepted positions rather than
	// what the first PE had consumed.
	input bool
	// perPE: a checkpoint holds one PE's share — its logic state and its
	// outgoing queue (pipe or subjob output), plus for the first PE whatever
	// input says — and only the first PE's releases an upstream
	// acknowledgment.
	perPE bool
}

// NewSweeping creates the sweeping checkpoint manager: a checkpoint is
// taken immediately after the subjob's output queue is trimmed, and the
// interval ticker only seeds a sweep — a tick checkpoints when nothing was
// taken since the previous tick, so a subjob that receives no trims still
// checkpoints once per Interval. Snapshots exclude the input queue.
func NewSweeping(cfg Config) *Core { return newCore(cfg, onTrim, capturePlan{}) }

// NewSynchronous creates the timer-driven variant the paper compares
// sweeping checkpointing against: on every interval all PEs of the subjob
// are suspended and the full state — including the input queue — is
// captured before they resume. Including the input queue makes messages
// much larger for PEs that consume more raw data than they derive, which
// is the overhead the paper's Section III quantifies.
func NewSynchronous(cfg Config) *Core {
	cfg.Partial = false // bounded-error frames are a sweeping-only mode
	return newCore(cfg, onTick, capturePlan{input: true})
}

// NewIndividual creates the per-PE-timer variant: every PE has its own
// timer and is checkpointed independently. Each cycle still captures a
// consistent view of the owning subjob copy (pausing only briefly), but
// one message is sent per PE per interval and each message carries the
// PE's share of queue state plus the input queue for the first PE — more,
// smaller, overlapping messages than one swept checkpoint. With
// RebaseEvery ≥ 2, per-PE messages become per-PE deltas between
// whole-subjob full rebases; each PE's change tracking is reset only on
// its own turn, so the rotation's per-PE chains fold correctly.
func NewIndividual(cfg Config) *Core {
	cfg.Partial = false // bounded-error frames are a sweeping-only mode
	return newCore(cfg, onPETick, capturePlan{input: true, perPE: true})
}

// want is what the core's cadence asks of one capture: a partial frame, a
// delta against the previous checkpoint (whose output queue ended at
// outSince), or — neither set, or the delta not expressible — a full
// snapshot. A delta capture refills reuse, an encoded delta, when set.
type want struct {
	partial  bool
	delta    bool
	outSince uint64
	reuse    *subjob.Delta
}

// capture takes what w asks for on PE i's turn (always 0 unless the trigger
// is onPETick) and returns it as a ship job still lacking its sequence
// number and size, with the upstream positions to release once the store
// confirms it; nil registers no pending acknowledgment. The core calls it
// with every PE parked.
func (p capturePlan) capture(cfg *Config, i int, w want) (j shipJob, ack map[string]uint64) {
	rt := cfg.Runtime
	if w.partial {
		j.part = rt.CapturePartial()
		return j, j.part.Consumed
	}
	// A whole-subjob checkpoint is at once its first and its last PE's.
	first, last, only := true, true, -1
	if p.perPE {
		first, last, only = i == 0, i == len(rt.PEs())-1, i
	}
	// Per-PE deltas fold onto the stored image, so an incremental per-PE
	// chain still rebases with a full snapshot of the whole subjob.
	whole := !p.perPE || cfg.RebaseEvery >= 2

	var consumed *map[string]uint64
	if w.delta {
		j.delta, _ = rt.CaptureDelta(subjob.DeltaOptions{
			OutputSince:   w.outSince,
			IncludeOutput: last,
			IncludeInput:  p.input && first,
			OnlyPE:        only,
		}, w.reuse)
	}
	if j.delta != nil {
		consumed = &j.delta.Consumed
	} else {
		j.snap = rt.CaptureFull()
		consumed = &j.snap.Consumed
		if p.input && (first || whole) {
			j.snap.Input = rt.In().SnapshotBuf()
		}
	}
	switch {
	case !p.input:
		ack = *consumed
	case first || j.snap != nil && whole:
		// The input queue itself is part of the checkpoint.
		ack = rt.In().AcceptedAll()
		*consumed = ack
	}
	if j.snap != nil && !whole {
		pruneToShare(j.snap, rt, i, last)
	}
	return j, ack
}

// pruneToShare cuts a full snapshot down to PE i's share, as the classic
// individual variant ships it: the other PEs' states and pipes go, and the
// output queue's contents unless i is the last PE.
func pruneToShare(snap *subjob.Snapshot, rt *subjob.Runtime, i int, last bool) {
	for j := range snap.PEStates {
		if j != i {
			snap.PEStates[j] = nil
		}
	}
	snap.StateUnits = rt.PEs()[i].Logic().StateSize()
	for j := range snap.Pipes {
		if j != i {
			snap.Pipes[j] = nil
		}
	}
	if !last {
		snap.Output.Buf = nil
	}
}
