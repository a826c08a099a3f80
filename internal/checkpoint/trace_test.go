package checkpoint

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"streamha/internal/element"
	"streamha/internal/pe"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// traceRig is newRig plus a two-PE runtime of its own subjob whose
// checkpoints go to a recording tap on the secondary machine in place of a
// store: the tap notes every checkpoint message and confirms it the way a
// store does, so the manager releases its upstream acknowledgment.
type traceRig struct {
	*rig
	rt *subjob.Runtime

	mu      sync.Mutex
	shipped []string
	// limit, when non-zero, makes the tap drop checkpoints with a higher
	// sequence number unrecorded and unconfirmed, so a timer-driven trace
	// has a fixed length.
	limit uint64
}

func newTraceRig(t *testing.T, sjID string) *traceRig {
	t.Helper()
	r := &traceRig{rig: newRig(t, InMemory)}
	spec := r.rig.rt.Spec()
	spec.ID = sjID
	spec.PEs = []subjob.PESpec{
		{Name: "a", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 5, HotSlots: 4} }},
		{Name: "b", NewLogic: func() pe.Logic { return &pe.CounterLogic{Pad: 3} }},
	}
	rt, err := subjob.New(spec, r.priM, false)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	r.rt = rt

	r.secM.RegisterStream(subjob.CkptStream(sjID), func(from transport.NodeID, msg transport.Message) {
		kind := "?"
		if len(msg.State) >= 4 {
			kind = map[string]string{"SHS2": "full", "SHD2": "delta", "SHP2": "partial"}[string(msg.State[:4])]
		}
		h := fnv.New64a()
		h.Write(msg.State)
		r.mu.Lock()
		if r.limit != 0 && msg.Seq > r.limit {
			r.mu.Unlock()
			return
		}
		r.shipped = append(r.shipped, fmt.Sprintf("seq=%d %s units=%d bytes=%d fnv=%016x",
			msg.Seq, kind, msg.ElementCount, len(msg.State), h.Sum64()))
		r.mu.Unlock()
		r.secM.Send(from, transport.Message{
			Kind:    transport.KindControl,
			Stream:  subjob.CkptAckStream(sjID),
			Command: "ckpt-stored",
			Seq:     msg.Seq,
		})
	})
	return r
}

// trace returns what the tap has recorded so far.
func (r *traceRig) trace() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.shipped...)
}

// feedSettled feeds from..to and waits until every element has left the
// last PE, so pipes are empty and the output queue is deterministic.
func (r *traceRig) feedSettled(t *testing.T, from, to uint64) {
	t.Helper()
	r.feedRuntime(t, r.rt, from, to)
	waitOutLen(t, r.rt, int(to))
}

// The three constructors behind the common interface. Closures rather than
// the functions themselves, so these tests also compile against
// constructors that return a type per variant — the code their literals
// were recorded on.
var (
	sweeping    = func(cfg Config) *Core { return NewSweeping(cfg) }
	synchronous = func(cfg Config) *Core { return NewSynchronous(cfg) }
	individual  = func(cfg Config) *Core { return NewIndividual(cfg) }
)

// TestManagerTraceCharacterisation pins, for every variant and mode, the
// exact checkpoints a fixed script ships — sequence number, frame kind,
// size in units and bytes, and a hash of the payload — and the upstream
// positions each one releases. The script covers the cadence (full, then
// delta or partial), ForceFull, Pause (a CheckpointNow while paused does
// nothing), Resume (the next capture is full) and a capture with elements
// parked in the input queue, which the synchronous and individual variants
// include and acknowledge. The literals were recorded on the three separate
// manager implementations this package used to carry.
func TestManagerTraceCharacterisation(t *testing.T) {
	cases := []struct {
		name    string
		mk      func(Config) *Core
		rebase  int
		partial bool
		shipped []string
		acks    []uint64
	}{
		{name: "sweeping/classic", mk: sweeping,
			shipped: []string{
				"seq=1 full units=28 bytes=1186 fnv=af6eda3d5e809d76",
				"seq=2 full units=48 bytes=1986 fnv=6d03423c9f28be82",
				"seq=3 full units=68 bytes=2786 fnv=c4114c411632b7ca",
				"seq=4 full units=88 bytes=3586 fnv=568c911e4ca932b2",
				"seq=5 full units=108 bytes=4386 fnv=942204027c4abc6b",
				"seq=6 full units=108 bytes=4386 fnv=942204027c4abc6b",
			},
			acks: []uint64{20, 40, 60, 80, 100, 100}},
		{name: "sweeping/rebase3", mk: sweeping, rebase: 3,
			shipped: []string{
				"seq=1 full units=28 bytes=1186 fnv=af6eda3d5e809d76",
				"seq=2 delta units=27 bytes=1085 fnv=3e22020f9348ff77",
				"seq=3 full units=68 bytes=2786 fnv=c4114c411632b7ca",
				"seq=4 full units=88 bytes=3586 fnv=568c911e4ca932b2",
				"seq=5 delta units=27 bytes=1085 fnv=2778269e98d7dc29",
				"seq=6 delta units=2 bytes=45 fnv=641ef6e67fa957f4",
			},
			acks: []uint64{20, 40, 60, 80, 100, 100}},
		{name: "sweeping/partial", mk: sweeping, partial: true,
			shipped: []string{
				"seq=1 full units=28 bytes=1186 fnv=af6eda3d5e809d76",
				"seq=2 partial units=7 bytes=272 fnv=e9d20f04efe2a685",
				"seq=3 full units=68 bytes=2786 fnv=c4114c411632b7ca",
				"seq=4 full units=88 bytes=3586 fnv=568c911e4ca932b2",
				"seq=5 partial units=7 bytes=272 fnv=c19671a74ebf8380",
				"seq=6 partial units=2 bytes=33 fnv=1028ea4a661317b1",
			},
			acks: []uint64{20, 40, 60, 80, 100, 100}},
		{name: "synchronous/classic", mk: synchronous,
			shipped: []string{
				"seq=1 full units=28 bytes=1186 fnv=af6eda3d5e809d76",
				"seq=2 full units=48 bytes=1986 fnv=6d03423c9f28be82",
				"seq=3 full units=68 bytes=2786 fnv=c4114c411632b7ca",
				"seq=4 full units=88 bytes=3586 fnv=568c911e4ca932b2",
				"seq=5 full units=108 bytes=4386 fnv=942204027c4abc6b",
				"seq=6 full units=113 bytes=4601 fnv=770a5f199f51bbe3",
			},
			acks: []uint64{20, 40, 60, 80, 100, 105}},
		{name: "synchronous/rebase3", mk: synchronous, rebase: 3,
			shipped: []string{
				"seq=1 full units=28 bytes=1186 fnv=af6eda3d5e809d76",
				"seq=2 delta units=27 bytes=1086 fnv=ff534ba57822e4f6",
				"seq=3 full units=68 bytes=2786 fnv=c4114c411632b7ca",
				"seq=4 full units=88 bytes=3586 fnv=568c911e4ca932b2",
				"seq=5 delta units=27 bytes=1086 fnv=f587e271fdfcdcac",
				"seq=6 delta units=7 bytes=261 fnv=196bfd360b954c6d",
			},
			acks: []uint64{20, 40, 60, 80, 100, 105}},
		{name: "individual/classic", mk: individual,
			shipped: []string{
				"seq=1 full units=5 bytes=249 fnv=5b8f32576b4d5d36",
				"seq=2 full units=5 bytes=249 fnv=2dd43fc758919b3f",
				"seq=3 full units=5 bytes=249 fnv=609c5caabbd131fd",
				"seq=4 full units=5 bytes=249 fnv=e28c0b748afff400",
				"seq=5 full units=5 bytes=249 fnv=d0306dc6fb4fbfd5",
				"seq=6 full units=10 bytes=464 fnv=4d85b56d66cb1549",
			},
			acks: []uint64{20, 40, 60, 80, 100, 105}},
		{name: "individual/rebase3", mk: individual, rebase: 3,
			shipped: []string{
				"seq=1 full units=28 bytes=1186 fnv=af6eda3d5e809d76",
				"seq=2 delta units=6 bytes=256 fnv=25a2e4aeafdb0c72",
				"seq=3 full units=68 bytes=2786 fnv=c4114c411632b7ca",
				"seq=4 full units=88 bytes=3586 fnv=568c911e4ca932b2",
				"seq=5 delta units=6 bytes=256 fnv=d61e60d0061c3973",
				"seq=6 delta units=6 bytes=249 fnv=3e1efd83a2b8c803",
			},
			acks: []uint64{20, 40, 60, 80, 100, 105}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTraceRig(t, "j/trace")
			cm := tc.mk(Config{
				Runtime:     r.rt,
				Clock:       r.clk,
				Interval:    time.Hour,
				StoreNode:   r.secM.ID(),
				Costs:       Costs{Disabled: true},
				RebaseEvery: tc.rebase,
				Partial:     tc.partial,
			})
			cm.Start()
			defer cm.Stop()

			var acks []uint64
			checkpoint := func() {
				t.Helper()
				cm.CheckpointNow()
				select {
				case seq := <-r.acks:
					acks = append(acks, seq)
				case <-time.After(2 * time.Second):
					t.Fatalf("no upstream ack after checkpoint %d", len(acks)+1)
				}
			}

			r.feedSettled(t, 1, 20)
			checkpoint() // 1: no baseline yet, full
			r.feedSettled(t, 21, 40)
			checkpoint() // 2: the mode's increment
			cm.ForceFull()
			r.feedSettled(t, 41, 60)
			checkpoint() // 3: forced full

			cm.Pause()
			r.feedSettled(t, 61, 80)
			if paused := cm.CheckpointNow(); paused != 0 {
				t.Fatalf("CheckpointNow on a paused manager paused the PEs for %v", paused)
			}
			if st := cm.Stats(); st.Taken != 3 || st.Pending != 0 {
				t.Fatalf("paused manager: taken %d pending %d, want 3 and 0", st.Taken, st.Pending)
			}
			cm.Resume()
			checkpoint() // 4: full after Resume
			r.feedSettled(t, 81, 100)
			checkpoint() // 5: increment again

			// 6: five elements accepted but not consumed — the PEs are parked
			// before they arrive and the capture's own resume lets them go.
			r.rt.PauseAll()
			batch := make([]element.Element, 5)
			for i := range batch {
				s := uint64(101 + i)
				batch[i] = element.Element{ID: s, Seq: s, Payload: int64(s)}
			}
			r.upM.Send(r.priM.ID(), transport.Message{
				Kind: transport.KindData, Stream: subjob.DataStream("j/trace", "in"), Elements: batch,
			})
			waitUntil(t, "the input queue holds the parked elements", func() bool { return r.rt.In().Len() == 5 })
			checkpoint()

			waitUntil(t, "the tap has recorded six checkpoints", func() bool { return len(r.trace()) >= 6 })
			if st := cm.Stats(); st.Taken != 6 || st.Pending != 0 {
				t.Errorf("taken %d pending %d, want 6 and 0", st.Taken, st.Pending)
			}
			shipped := r.trace()
			if !reflect.DeepEqual(shipped, tc.shipped) || !reflect.DeepEqual(acks, tc.acks) {
				t.Errorf("trace differs from the recorded one.\nshipped:\n\t\"%s\",\nacks: %v",
					strings.Join(shipped, "\",\n\t\""), acks)
			}
		})
	}
}

// TestIndividualRotationCharacterisation pins what the individual variant's
// own timer ships over two rotations of a two-PE subjob whose state has
// settled: in the classic protocol each message is one PE's share (only
// the last PE's carries the output queue) and only the first PE's releases
// an upstream acknowledgment; incrementally a whole-subjob rebase releases
// one whichever PE's turn it falls on.
func TestIndividualRotationCharacterisation(t *testing.T) {
	cases := []struct {
		name    string
		rebase  int
		shipped []string
		acks    int
	}{
		{name: "classic",
			shipped: []string{
				"seq=1 full units=5 bytes=250 fnv=0d34ce86f63947c5",
				"seq=2 full units=23 bytes=970 fnv=058fa73b853aecb1",
				"seq=3 full units=5 bytes=250 fnv=0d34ce86f63947c5",
				"seq=4 full units=23 bytes=970 fnv=058fa73b853aecb1",
			},
			acks: 2},
		{name: "rebase3", rebase: 3,
			shipped: []string{
				"seq=1 full units=28 bytes=1187 fnv=fc3786f9b7b8bae7",
				"seq=2 delta units=1 bytes=41 fnv=0ae0069f133fb61e",
				"seq=3 delta units=1 bytes=35 fnv=6c128af97cb89617",
				"seq=4 full units=28 bytes=1187 fnv=fc3786f9b7b8bae7",
			},
			acks: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTraceRig(t, "j/rotate")
			r.limit = 4
			r.feedSettled(t, 1, 20)
			cm := NewIndividual(Config{
				Runtime:     r.rt,
				Clock:       r.clk,
				Interval:    10 * time.Millisecond,
				StoreNode:   r.secM.ID(),
				Costs:       Costs{Disabled: true},
				RebaseEvery: tc.rebase,
			})
			cm.Start()
			defer cm.Stop()
			waitUntil(t, "the tap has recorded two rotations", func() bool { return len(r.trace()) >= 4 })

			acks := 0
			for drained := false; !drained; {
				select {
				case pos := <-r.acks:
					if pos != 20 {
						t.Fatalf("released position %d, want 20", pos)
					}
					acks++
				case <-time.After(50 * time.Millisecond):
					drained = true
				}
			}
			shipped := r.trace()
			if !reflect.DeepEqual(shipped, tc.shipped) || acks != tc.acks {
				t.Errorf("trace differs from the recorded one.\nshipped:\n\t\"%s\",\nacks: %d",
					strings.Join(shipped, "\",\n\t\""), acks)
			}
		})
	}
}
