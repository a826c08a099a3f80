package subjob

import (
	"fmt"
	"sync"
	"time"

	"streamha/internal/element"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/transport"
)

// PESpec describes one PE of a subjob; every copy instantiates its own
// Logic from the factory.
type PESpec struct {
	Name string
	// NewLogic constructs a fresh Logic instance for one copy.
	NewLogic func() pe.Logic
	// Cost is the CPU work per element.
	Cost time.Duration
}

// Spec describes a subjob independent of any particular copy.
type Spec struct {
	JobID string
	// ID is the copy-agnostic subjob identifier, e.g. "job1/sj2".
	ID string
	// InStreams lists the logical streams feeding the subjob.
	InStreams []string
	// Owners maps each input stream to the subjob ID (or the source owner
	// name) producing it, for acknowledgment routing.
	Owners map[string]string
	// OutStream is the logical stream the subjob produces.
	OutStream string
	// PEs is the pipeline, in order.
	PEs []PESpec
	// BatchSize is the per-PE batch size (default 64).
	BatchSize int
}

// AckTarget is one destination for cumulative acknowledgments of an input
// stream: a copy of the upstream subjob owning that stream.
type AckTarget struct {
	Node   transport.NodeID
	Stream string // AckStream(owner, logical)
}

// senderStaleness bounds how long a copy that stopped delivering data keeps
// receiving acknowledgments. Acknowledgments route to the copies that
// actually delivered data recently, so the ack plane re-wires itself across
// switchover, rollback and migration without any control traffic.
const senderStaleness = 2 * time.Second

// Runtime is one running (or suspended) copy of a subjob on a machine.
type Runtime struct {
	spec Spec
	m    *machine.Machine

	in    *queue.Input
	pes   []*pe.PE
	pipes []*pe.Pipe
	out   *queue.Output

	// opMu serializes state-level operations: checkpoints, restores,
	// suspend/resume and read-state snapshots. Without it a checkpoint
	// manager's resume could unpark PEs in the middle of a controller's
	// restore.
	opMu sync.Mutex

	// ackStreams maps each input stream to its owner's acknowledgment
	// stream name, built once so acks do not rebuild it per message.
	ackStreams map[string]string

	mu        sync.Mutex
	suspended bool
	started   bool
	stopped   bool
	senders   map[string]map[transport.NodeID]time.Time
	// ckptSeq is the highest checkpoint sequence number assigned to a
	// capture of this copy (see NextCheckpointSeq).
	ckptSeq uint64

	// spares[i] stacks the dead PE-state buffers handed back through
	// ReleaseSnapshot for PE i, if its logic is a pe.SnapshotRecycler;
	// Snapshot offers one to the logic before each capture. A buffer joins
	// the stack only after a capture that found it empty allocated one, so
	// the stack never outgrows the snapshots alive at once (a checkpoint
	// manager's in-flight bound plus one).
	spareMu sync.Mutex
	spares  [][][]byte
}

// New assembles a subjob copy on m. If startSuspended is true the copy's
// PEs park immediately when started — the pre-deployed standby of the
// hybrid method. Call Start to register message handlers and launch PE
// loops.
func New(spec Spec, m *machine.Machine, startSuspended bool) (*Runtime, error) {
	if len(spec.PEs) == 0 {
		return nil, fmt.Errorf("subjob %s: no PEs", spec.ID)
	}
	if spec.BatchSize <= 0 {
		spec.BatchSize = 64
	}
	r := &Runtime{
		spec:       spec,
		m:          m,
		in:         queue.NewInput(spec.InStreams...),
		suspended:  startSuspended,
		senders:    make(map[string]map[transport.NodeID]time.Time),
		ackStreams: make(map[string]string, len(spec.InStreams)),
		spares:     make([][][]byte, len(spec.PEs)),
	}
	for _, s := range spec.InStreams {
		r.ackStreams[s] = AckStream(spec.Owners[s], s)
	}
	r.out = queue.NewOutput(spec.OutStream, func(to transport.NodeID, msg transport.Message) {
		m.Send(to, msg)
	})

	r.pipes = make([]*pe.Pipe, len(spec.PEs)-1)
	for i := range r.pipes {
		r.pipes[i] = pe.NewPipe()
	}
	r.pes = make([]*pe.PE, len(spec.PEs))
	for i, ps := range spec.PEs {
		var src pe.Source
		if i == 0 {
			src = r.in
		} else {
			src = r.pipes[i-1]
		}
		var sink pe.Sink
		if i == len(spec.PEs)-1 {
			sink = outputSink{r.out}
		} else {
			sink = r.pipes[i]
		}
		r.pes[i] = pe.New(pe.Config{
			Logic:     ps.NewLogic(),
			Cost:      ps.Cost,
			BatchSize: spec.BatchSize,
			Executor:  m.CPU(),
			Source:    src,
			Sink:      sink,
		})
	}
	return r, nil
}

type outputSink struct{ out *queue.Output }

func (s outputSink) Push(elems []element.Element) { s.out.Publish(elems) }

// Spec returns the subjob's specification.
func (r *Runtime) Spec() Spec { return r.spec }

// Machine returns the hosting machine.
func (r *Runtime) Machine() *machine.Machine { return r.m }

// Node returns the hosting machine's node ID.
func (r *Runtime) Node() transport.NodeID { return r.m.ID() }

// Out returns the subjob's output queue, for subscription wiring.
func (r *Runtime) Out() *queue.Output { return r.out }

// In returns the subjob's input queue, for wiring and tests.
func (r *Runtime) In() *queue.Input { return r.in }

// PEs returns the PE runtimes in pipeline order.
func (r *Runtime) PEs() []*pe.PE { return r.pes }

// Start registers the copy's message handlers on its machine and launches
// the PE loops (parked if the copy was created suspended).
func (r *Runtime) Start() {
	r.mu.Lock()
	if r.started || r.stopped {
		r.mu.Unlock()
		return
	}
	r.started = true
	suspended := r.suspended
	r.mu.Unlock()

	for _, s := range r.spec.InStreams {
		logical := s
		r.m.RegisterStream(DataStream(r.spec.ID, logical), func(from transport.NodeID, msg transport.Message) {
			r.noteSender(logical, from)
			if msg.Seq > 0 {
				// Partition-filtered send: Seq is the covered watermark (the
				// sequence the batch was filtered up to), not a per-element seq.
				r.in.PushCovered(logical, msg.Elements, msg.Seq)
			} else {
				r.in.Push(logical, msg.Elements)
			}
		})
	}
	r.m.RegisterStream(AckStream(r.spec.ID, r.spec.OutStream), func(from transport.NodeID, msg transport.Message) {
		r.out.Ack(from, msg.Seq)
	})
	r.m.RegisterStream(ResyncStream(r.spec.ID, r.spec.OutStream), func(from transport.NodeID, _ transport.Message) {
		// A downstream consumer restarted from a durable checkpoint and
		// asks for everything it has not acknowledged.
		r.out.Resync(from)
	})

	for _, p := range r.pes {
		if suspended {
			p.Pause()
		}
		p.Start()
	}
}

// Stop halts the copy's PE loops and unregisters its handlers.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()

	for _, s := range r.spec.InStreams {
		r.m.UnregisterStream(DataStream(r.spec.ID, s))
	}
	r.m.UnregisterStream(AckStream(r.spec.ID, r.spec.OutStream))
	r.m.UnregisterStream(ResyncStream(r.spec.ID, r.spec.OutStream))
	for _, p := range r.pes {
		p.Stop()
	}
}

// Suspend parks every PE; a suspended copy consumes no CPU. It blocks
// until the copy is quiescent.
func (r *Runtime) Suspend() {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	r.suspended = true
	r.mu.Unlock()
	for _, p := range r.pes {
		p.Pause()
	}
}

// Resume unparks every PE. This is the fast path of the hybrid switchover:
// the pre-deployed copy only needs its processing-loop flags reset.
func (r *Runtime) Resume() {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	r.suspended = false
	r.mu.Unlock()
	for _, p := range r.pes {
		p.Resume()
	}
}

// WithPaused runs f with every PE parked, holding the operation lock, and
// unparks them afterwards (unless the copy is suspended). Checkpoint
// managers use it so their pause/resume cannot interleave with recovery
// restores.
func (r *Runtime) WithPaused(f func()) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.PauseAll()
	defer r.ResumeAll()
	f()
}

// Exclusive runs f holding the operation lock without touching PE pause
// state. Standby stores use it to apply checkpoint refreshes atomically
// with respect to rollback snapshots.
func (r *Runtime) Exclusive(f func()) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	f()
}

// SuspendAndSnapshot atomically suspends the copy and captures its state —
// the secondary side of the hybrid rollback's read-state step.
func (r *Runtime) SuspendAndSnapshot() *Snapshot {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	r.suspended = true
	r.mu.Unlock()
	for _, p := range r.pes {
		p.Pause()
	}
	return r.Snapshot()
}

// Suspended reports whether the copy is suspended.
func (r *Runtime) Suspended() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suspended
}

// PauseAll parks every PE for a checkpoint and blocks until quiescent.
func (r *Runtime) PauseAll() {
	for _, p := range r.pes {
		p.Pause()
	}
}

// ResumeAll unparks the PEs after a checkpoint unless the copy is
// suspended, in which case it stays parked.
func (r *Runtime) ResumeAll() {
	r.mu.Lock()
	suspended := r.suspended
	r.mu.Unlock()
	if suspended {
		return
	}
	for _, p := range r.pes {
		p.Resume()
	}
}

// Snapshot captures the copy's checkpointable state. The copy must be
// paused (or suspended). A logic that recycles snapshot buffers is first
// offered one handed back through ReleaseSnapshot.
func (r *Runtime) Snapshot() *Snapshot {
	s := &Snapshot{
		SubjobID: r.spec.ID,
		Consumed: r.pes[0].ConsumedPositions(),
		PEStates: make([][]byte, len(r.pes)),
		Pipes:    make([][]element.Element, len(r.pipes)),
		Output:   r.out.Snapshot(),
	}
	for i, p := range r.pes {
		logic := p.Logic()
		if rec, ok := logic.(pe.SnapshotRecycler); ok {
			if buf := r.takeSpare(i); buf != nil {
				rec.RecycleSnapshot(buf)
			}
		}
		s.PEStates[i] = logic.Snapshot()
		s.StateUnits += logic.StateSize()
	}
	for i, pp := range r.pipes {
		s.Pipes[i] = pp.Snapshot()
	}
	return s
}

func (r *Runtime) takeSpare(i int) []byte {
	r.spareMu.Lock()
	defer r.spareMu.Unlock()
	n := len(r.spares[i])
	if n == 0 {
		return nil
	}
	buf := r.spares[i][n-1]
	r.spares[i][n-1] = nil
	r.spares[i] = r.spares[i][:n-1]
	return buf
}

// ReleaseSnapshot hands the PE-state buffers of a snapshot this copy
// captured back for reuse by a later capture. The caller must hold the
// only reference to s and be done reading it — the checkpoint shipper
// calls it once the snapshot is encoded — and must not touch s.PEStates
// afterwards. A snapshot that is never released just costs the next
// capture an allocation.
func (r *Runtime) ReleaseSnapshot(s *Snapshot) {
	r.spareMu.Lock()
	defer r.spareMu.Unlock()
	for i, st := range s.PEStates {
		if _, ok := r.pes[i].Logic().(pe.SnapshotRecycler); ok && cap(st) > 0 {
			r.spares[i] = append(r.spares[i], st)
		}
		s.PEStates[i] = nil
	}
}

// NextCheckpointSeq assigns the sequence number of a checkpoint of this
// copy: one past both after and every number assigned before. Successive
// checkpoint managers on one copy so continue one sequence, and a store's
// acknowledgment that reaches a successor late names none of the
// successor's checkpoints.
func (r *Runtime) NextCheckpointSeq(after uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ckptSeq = max(r.ckptSeq, after) + 1
	return r.ckptSeq
}

// Restore overwrites the copy's state from a snapshot. The copy must be
// paused (or suspended). The input queue is aligned to the snapshot's
// consumption positions: elements the snapshot already covers are
// discarded and the dedup mark raised so retransmissions are recognized.
func (r *Runtime) Restore(s *Snapshot) error {
	if s.SubjobID != r.spec.ID {
		return fmt.Errorf("subjob %s: snapshot for %s", r.spec.ID, s.SubjobID)
	}
	if len(s.PEStates) != len(r.pes) || len(s.Pipes) != len(r.pipes) {
		return fmt.Errorf("subjob %s: snapshot shape mismatch", r.spec.ID)
	}
	for i, p := range r.pes {
		if err := p.Logic().Restore(s.PEStates[i]); err != nil {
			return fmt.Errorf("subjob %s: restore PE %d: %w", r.spec.ID, i, err)
		}
	}
	for i, pp := range r.pipes {
		pp.Restore(s.Pipes[i])
	}
	if err := r.out.Restore(s.Output); err != nil {
		return err
	}
	r.pes[0].SetConsumedPositions(s.Consumed)
	r.in.SetAccepted(s.Consumed)
	return nil
}

// CaptureFull captures a full snapshot and aligns every PE's delta
// tracking with it, so a subsequent CaptureDelta describes exactly the
// changes since this snapshot. Checkpoint managers use it for rebase
// checkpoints; recovery paths keep using Snapshot, which leaves the
// tracking untouched. The copy must be paused (or suspended).
func (r *Runtime) CaptureFull() *Snapshot {
	s := r.Snapshot()
	for _, p := range r.pes {
		if dl, ok := p.Logic().(pe.DeltaLogic); ok {
			dl.ResetDelta()
		}
	}
	return s
}

// DeltaOptions selects what a CaptureDelta covers.
type DeltaOptions struct {
	// OutputSince is the output queue's NextSeq recorded at the previous
	// capture that included the output; the delta carries only elements
	// published since. Ignored unless IncludeOutput.
	OutputSince uint64
	// IncludeOutput covers the output queue (all variants except the
	// individual variant's non-final PEs).
	IncludeOutput bool
	// IncludeInput covers the input queue (synchronous variant, and the
	// individual variant's first PE).
	IncludeInput bool
	// OnlyPE restricts PE state and pipes to a single PE (the individual
	// variant); -1 covers every PE. Restricting resets only that PE's
	// change tracking, so the rotation's per-PE chains stay intact.
	OnlyPE int
}

// CaptureDelta captures an incremental checkpoint: each covered PE's state
// patch (with a full-state fallback where no delta baseline exists), pipe
// contents, and the output queue's advance since OutputSince. It returns
// ok=false when the output queue cannot express the requested advance —
// the runtime was restored to an older state since the previous capture —
// in which case the caller must rebase with CaptureFull. The copy must be
// paused (or suspended).
//
// A caller may pass reuse, an earlier delta of this copy that nobody reads
// any more (the checkpoint shipper's, once encoded): the capture refills
// it, and a logic that recycles snapshot buffers is offered reuse's patch
// or state buffer for its PE before it captures, as ReleaseSnapshot's
// spares are before a full capture. The consumed map is always fresh: the
// checkpoint manager keeps it as the acknowledgment the checkpoint
// releases.
func (r *Runtime) CaptureDelta(opt DeltaOptions, reuse ...*Delta) (*Delta, bool) {
	var od queue.OutputDelta
	if opt.IncludeOutput {
		var ok bool
		if od, ok = r.out.SnapshotSince(opt.OutputSince); !ok {
			return nil, false
		}
	}
	var d *Delta
	if len(reuse) > 0 {
		d = reuse[0]
	}
	if d == nil || len(d.PEDeltas) != len(r.pes) || len(d.PEFull) != len(r.pes) ||
		len(d.Pipes) != len(r.pipes) || len(d.PipeSet) != len(r.pipes) {
		d = &Delta{
			PEDeltas: make([][]byte, len(r.pes)),
			PEFull:   make([][]byte, len(r.pes)),
			Pipes:    make([][]element.Element, len(r.pipes)),
			PipeSet:  make([]bool, len(r.pipes)),
		}
	}
	clear(d.Pipes)
	clear(d.PipeSet)
	*d = Delta{
		SubjobID:  r.spec.ID,
		Consumed:  r.pes[0].ConsumedPositions(),
		PEDeltas:  d.PEDeltas,
		PEFull:    d.PEFull,
		Pipes:     d.Pipes,
		PipeSet:   d.PipeSet,
		Output:    od,
		HasOutput: opt.IncludeOutput,
	}
	for i, p := range r.pes {
		spare := d.PEDeltas[i]
		if spare == nil {
			spare = d.PEFull[i]
		}
		d.PEDeltas[i], d.PEFull[i] = nil, nil
		if opt.OnlyPE >= 0 && i != opt.OnlyPE {
			continue
		}
		logic := p.Logic()
		if rec, ok := logic.(pe.SnapshotRecycler); ok && cap(spare) > 0 {
			rec.RecycleSnapshot(spare)
		}
		if dl, ok := logic.(pe.DeltaLogic); ok {
			if patch, ok := dl.DeltaSnapshot(); ok {
				d.PEDeltas[i] = patch
				d.StateUnits += pe.PatchUnits(patch)
				continue
			}
			dl.ResetDelta()
		}
		full := logic.Snapshot()
		if full == nil {
			full = []byte{}
		}
		d.PEFull[i] = full
		d.StateUnits += logic.StateSize()
	}
	for i, pp := range r.pipes {
		if opt.OnlyPE >= 0 && i != opt.OnlyPE {
			continue
		}
		d.Pipes[i] = pp.Snapshot()
		d.PipeSet[i] = true
	}
	if opt.IncludeInput {
		d.Input = r.in.SnapshotBuf()
		d.HasInput = true
	}
	return d, true
}

// ApplyDelta folds a delta checkpoint into the live copy — the standby
// refresh counterpart of Restore. Chain validity (PrevSeq) is the caller's
// responsibility; a non-contiguous output delta or shape mismatch fails
// without guaranteeing an unmodified copy, so callers must re-baseline
// from a full snapshot after an error. The copy must be paused (or
// suspended).
func (r *Runtime) ApplyDelta(d *Delta) error {
	if d.SubjobID != r.spec.ID {
		return fmt.Errorf("subjob %s: delta for %s", r.spec.ID, d.SubjobID)
	}
	if len(d.PEDeltas) != len(r.pes) || len(d.PEFull) != len(r.pes) || len(d.Pipes) != len(r.pipes) {
		return fmt.Errorf("subjob %s: delta shape mismatch", r.spec.ID)
	}
	if d.HasOutput {
		// Validate the output chain first: if the delta does not chain onto
		// this copy, fail before any state is touched.
		if err := r.out.ApplyDelta(d.Output); err != nil {
			return fmt.Errorf("subjob %s: %w", r.spec.ID, err)
		}
	}
	if err := r.applyPEs(d.PEFull, d.PEDeltas); err != nil {
		return err
	}
	for i, pp := range r.pipes {
		if d.PipeSet[i] {
			pp.Restore(d.Pipes[i])
		}
	}
	if d.Consumed != nil {
		r.pes[0].SetConsumedPositions(d.Consumed)
		r.in.SetAccepted(d.Consumed)
	}
	return nil
}

// CapturePartial captures a bounded-error checkpoint: each PE's hot-range
// patch from its dirty tracking (with a full-state fallback where no
// baseline exists), the consumption positions, and the output queue's
// NextSeq. Pipes and queued elements are deliberately omitted — whatever
// they hold at failover is part of the loss the approx policy admits and
// accounts. The copy must be paused (or suspended).
func (r *Runtime) CapturePartial() *Partial {
	p := &Partial{
		SubjobID:  r.spec.ID,
		Consumed:  r.pes[0].ConsumedPositions(),
		PEPatches: make([][]byte, len(r.pes)),
		PEFull:    make([][]byte, len(r.pes)),
		OutNext:   r.out.NextSeq(),
	}
	for i, pr := range r.pes {
		logic := pr.Logic()
		if dl, ok := logic.(pe.DeltaLogic); ok {
			if patch, ok := dl.DeltaSnapshot(); ok {
				p.PEPatches[i] = patch
				p.StateUnits += pe.PatchUnits(patch)
				if pl, ok := logic.(pe.PartialLogic); ok {
					if cold := pl.StateBytes() - len(patch); cold > 0 {
						p.ColdBytes += uint64(cold)
					}
				}
				continue
			}
			dl.ResetDelta()
		}
		full := logic.Snapshot()
		if full == nil {
			full = []byte{}
		}
		p.PEFull[i] = full
		p.StateUnits += logic.StateSize()
	}
	return p
}

// ApplyPartial folds a partial checkpoint into the live copy — the standby
// refresh counterpart of ApplyDelta for the approx policy. State ranges
// the frame does not cover keep whatever this copy last saw (the bounded
// staleness the policy admits), pipes are left untouched, and the output
// queue is fast-forwarded to the frame's OutNext so that elements the
// promoted standby regenerates from replayed input land in the primary's
// sequence space. The copy must be paused (or suspended).
func (r *Runtime) ApplyPartial(p *Partial) error {
	if p.SubjobID != r.spec.ID {
		return fmt.Errorf("subjob %s: partial for %s", r.spec.ID, p.SubjobID)
	}
	if len(p.PEPatches) != len(r.pes) || len(p.PEFull) != len(r.pes) {
		return fmt.Errorf("subjob %s: partial shape mismatch", r.spec.ID)
	}
	if err := r.applyPEs(p.PEFull, p.PEPatches); err != nil {
		return err
	}
	r.out.FastForward(p.OutNext)
	if p.Consumed != nil {
		r.pes[0].SetConsumedPositions(p.Consumed)
		r.in.SetAccepted(p.Consumed)
	}
	return nil
}

// applyPEs folds per-PE state into the copy: PE i restores full[i], else
// applies the byte-range patch patches[i], else keeps its state.
func (r *Runtime) applyPEs(full, patches [][]byte) error {
	for i, p := range r.pes {
		switch {
		case full[i] != nil:
			if err := p.Logic().Restore(full[i]); err != nil {
				return fmt.Errorf("subjob %s: apply PE %d full state: %w", r.spec.ID, i, err)
			}
		case patches[i] != nil:
			dl, ok := p.Logic().(pe.DeltaLogic)
			if !ok {
				return fmt.Errorf("subjob %s: PE %d received a patch but its logic cannot apply one", r.spec.ID, i)
			}
			if err := dl.ApplyDelta(patches[i]); err != nil {
				return fmt.Errorf("subjob %s: apply PE %d patch: %w", r.spec.ID, i, err)
			}
		}
	}
	return nil
}

// SetInputPartition installs the input queue's partition guard: this copy
// serves partition-instance part of the stage routed by split.
func (r *Runtime) SetInputPartition(split *queue.Partitioner, part int) {
	r.in.SetPartition(split, part)
}

// noteSender remembers that node delivered data on logical, making it an
// acknowledgment target until it goes stale.
func (r *Runtime) noteSender(logical string, node transport.NodeID) {
	now := r.m.Clock().Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	byNode := r.senders[logical]
	if byNode == nil {
		byNode = make(map[transport.NodeID]time.Time)
		r.senders[logical] = byNode
	}
	byNode[node] = now
}

// AckUpstream sends cumulative acknowledgments for the given positions to
// every upstream copy that recently delivered data on each stream. The
// copies are collected under the lock into a stack array — a stream has
// one sender per live copy, so four is room to spare — and the acks are
// sent after the lock is released.
func (r *Runtime) AckUpstream(positions map[string]uint64) {
	now := r.m.Clock().Now()
	var buf [4]transport.NodeID
	for s, seq := range positions {
		if seq == 0 {
			continue
		}
		nodes := buf[:0]
		r.mu.Lock()
		for node, seen := range r.senders[s] {
			if now.Sub(seen) > senderStaleness {
				delete(r.senders[s], node)
				continue
			}
			nodes = append(nodes, node)
		}
		r.mu.Unlock()
		for _, node := range nodes {
			r.m.Send(node, transport.Message{
				Kind:   transport.KindAck,
				Stream: r.ackStreams[s],
				Seq:    seq,
			})
		}
	}
}

// ConsumedPositions returns the first PE's consumption positions.
func (r *Runtime) ConsumedPositions() map[string]uint64 {
	return r.pes[0].ConsumedPositions()
}

// ConsumedPositionsInto is ConsumedPositions writing into dst (see
// pe.PE.ConsumedPositionsInto).
func (r *Runtime) ConsumedPositionsInto(dst map[string]uint64) map[string]uint64 {
	return r.pes[0].ConsumedPositionsInto(dst)
}

// Backlog returns the number of elements queued but not yet processed
// inside the copy: input queue plus inter-PE pipes.
func (r *Runtime) Backlog() int {
	n := r.in.Len()
	for _, p := range r.pipes {
		n += p.Len()
	}
	return n
}

// Stats is a JSON-marshalable point-in-time view of one subjob copy,
// exported through the metrics registry.
type Stats struct {
	Subjob    string            `json:"subjob"`
	Node      string            `json:"node"`
	Suspended bool              `json:"suspended"`
	Backlog   int               `json:"backlog"`
	InputLen  int               `json:"input_len"`
	InputDups int               `json:"input_dups"`
	InputGaps int               `json:"input_gaps"`
	Output    queue.OutputStats `json:"output"`
}

// Stats captures the copy's queue depths, dedup counters and output
// retention state.
func (r *Runtime) Stats() Stats {
	dups, gaps := r.in.Drops()
	return Stats{
		Subjob:    r.spec.ID,
		Node:      string(r.Node()),
		Suspended: r.Suspended(),
		Backlog:   r.Backlog(),
		InputLen:  r.in.Len(),
		InputDups: dups,
		InputGaps: gaps,
		Output:    r.out.Stats(),
	}
}
