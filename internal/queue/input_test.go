package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamha/internal/element"
)

func seqElems(from, to uint64) []element.Element {
	out := make([]element.Element, 0, to-from+1)
	for s := from; s <= to; s++ {
		out = append(out, element.Element{ID: s, Seq: s})
	}
	return out
}

func TestPushPopInOrder(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 5))
	got := q.TryPop(10)
	if len(got) != 5 {
		t.Fatalf("popped %d", len(got))
	}
	for i, in := range got {
		if in.Elem.Seq != uint64(i+1) || in.Stream != "a" {
			t.Fatalf("entry %d = %+v", i, in)
		}
	}
}

// TestTryPopReusesItsBuffer: a warmed queue pops into the buffer it owns,
// so a push/pop cycle allocates nothing, and a pop leaves the batch it
// returned last overwritten — the reason a consumer must be done with a
// batch before it pops the next.
func TestTryPopReusesItsBuffer(t *testing.T) {
	q := NewInput("a")
	batch := seqElems(1, 16)
	cycle := func() {
		for i := range batch {
			batch[i].Seq += uint64(len(batch))
		}
		q.Push("a", batch)
		q.TryPop(len(batch))
	}
	q.Push("a", batch)
	first := q.TryPop(len(batch))
	if first[0].Elem.Seq != 1 {
		t.Fatalf("first pop starts at %d", first[0].Elem.Seq)
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Push+TryPop made %v allocations, want 0", got)
	}
	if want := uint64(1 + 101*len(batch)); first[0].Elem.Seq != want {
		t.Errorf("the first pop's buffer holds seq %d, want the last pop's %d", first[0].Elem.Seq, want)
	}
	if dups, gaps := q.Drops(); dups != 0 || gaps != 0 {
		t.Errorf("dups=%d gaps=%d", dups, gaps)
	}
}

func TestDuplicatesDropped(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 3))
	q.Push("a", seqElems(1, 3)) // retransmission
	q.Push("a", seqElems(2, 5)) // overlapping retransmission
	if got := q.TryPop(100); len(got) != 5 {
		t.Fatalf("popped %d, want 5 unique", len(got))
	}
	dups, gaps := q.Drops()
	if dups != 5 || gaps != 0 {
		t.Fatalf("dups=%d gaps=%d", dups, gaps)
	}
}

func TestGapsDroppedAndCounted(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 2))
	q.Push("a", seqElems(5, 6)) // 3,4 missing
	if got := q.TryPop(100); len(got) != 2 {
		t.Fatalf("popped %d, want 2", len(got))
	}
	_, gaps := q.Drops()
	if gaps != 2 {
		t.Fatalf("gaps=%d", gaps)
	}
}

func TestUnknownStreamIgnored(t *testing.T) {
	q := NewInput("a")
	q.Push("zzz", seqElems(1, 3))
	if q.Len() != 0 {
		t.Fatal("accepted unknown stream")
	}
}

func TestAddStream(t *testing.T) {
	q := NewInput("a")
	q.AddStream("b")
	q.Push("b", seqElems(1, 2))
	if q.Len() != 2 {
		t.Fatal("AddStream did not register")
	}
}

func TestMergeAcrossStreams(t *testing.T) {
	q := NewInput("a", "b")
	q.Push("a", seqElems(1, 2))
	q.Push("b", seqElems(1, 3))
	if q.Len() != 5 {
		t.Fatalf("len %d", q.Len())
	}
	if q.Accepted("a") != 2 || q.Accepted("b") != 3 {
		t.Fatal("wrong accepted positions")
	}
}

func TestReadySignalsOnce(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 1))
	q.Push("a", seqElems(2, 2))
	select {
	case <-q.Ready():
	default:
		t.Fatal("no ready token")
	}
	select {
	case <-q.Ready():
		t.Fatal("ready token duplicated")
	default:
	}
}

func TestReadyAfterDrainResignals(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 1))
	<-q.Ready()
	q.TryPop(10)
	q.Push("a", seqElems(2, 2))
	select {
	case <-q.Ready():
	default:
		t.Fatal("no ready after new data")
	}
}

func TestSetAcceptedDiscardsCoveredKeepsRest(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 10))
	q.SetAccepted(map[string]uint64{"a": 6})
	got := q.TryPop(100)
	if len(got) != 4 || got[0].Elem.Seq != 7 {
		t.Fatalf("kept %d starting at %d", len(got), got[0].Elem.Seq)
	}
}

func TestSetAcceptedNeverRewindsDedupMark(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 10))
	q.TryPop(100)
	// A rollback snapshot may carry an older position; the mark must not
	// move backward or later arrivals would read as gaps.
	q.SetAccepted(map[string]uint64{"a": 4})
	if q.Accepted("a") != 10 {
		t.Fatalf("accepted rewound to %d", q.Accepted("a"))
	}
	q.Push("a", seqElems(11, 12))
	if _, gaps := q.Drops(); gaps != 0 {
		t.Fatalf("gap recorded after rollback alignment: %d", gaps)
	}
	if q.Len() != 2 {
		t.Fatalf("len %d", q.Len())
	}
}

func TestSetAcceptedAdvancesMark(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 3))
	q.SetAccepted(map[string]uint64{"a": 8})
	// Duplicates of 4..8 (already covered by the restored state) drop.
	q.Push("a", seqElems(4, 8))
	if q.Len() != 0 {
		t.Fatalf("len %d", q.Len())
	}
	q.Push("a", seqElems(9, 9))
	if q.Len() != 1 {
		t.Fatal("contiguous arrival after restore rejected")
	}
}

func TestSnapshotRestoreBuf(t *testing.T) {
	q := NewInput("a")
	q.Push("a", seqElems(1, 4))
	buf := q.SnapshotBuf()
	if len(buf) != 4 {
		t.Fatalf("snapshot %d", len(buf))
	}
	q2 := NewInput("a")
	q2.RestoreBuf(buf)
	if q2.Len() != 4 || q2.Accepted("a") != 4 {
		t.Fatalf("restored len=%d accepted=%d", q2.Len(), q2.Accepted("a"))
	}
}

// TestExactlyOnceUnderRetransmissionProperty: any sequence of (possibly
// duplicated, possibly batched) contiguous pushes yields each sequence
// number exactly once, in order.
func TestExactlyOnceUnderRetransmissionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewInput("s")
		const total = 200
		sent := uint64(0)
		for sent < total {
			// Retransmit from a random point at or before sent, extending
			// the frontier by a random amount — the shape real recoveries
			// produce.
			from := uint64(1)
			if sent > 0 {
				from = uint64(rng.Intn(int(sent))) + 1
			}
			to := sent + uint64(rng.Intn(8))
			if to > total {
				to = total
			}
			if to >= from {
				q.Push("s", seqElems(from, to))
			}
			if to > sent {
				sent = to
			}
		}
		got := q.TryPop(10000)
		if len(got) != total {
			return false
		}
		for i, in := range got {
			if in.Elem.Seq != uint64(i+1) {
				return false
			}
		}
		_, gaps := q.Drops()
		return gaps == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFanInPreservesPerStreamOrderProperty: merging streams may interleave
// arbitrarily, but each stream's elements appear in sequence order.
func TestFanInPreservesPerStreamOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewInput("a", "b")
		next := map[string]uint64{"a": 0, "b": 0}
		for i := 0; i < 100; i++ {
			s := "a"
			if rng.Intn(2) == 1 {
				s = "b"
			}
			n := uint64(rng.Intn(4) + 1)
			q.Push(s, seqElems(next[s]+1, next[s]+n))
			next[s] += n
		}
		seen := map[string]uint64{}
		for {
			got := q.TryPop(16)
			if len(got) == 0 {
				break
			}
			for _, in := range got {
				if in.Elem.Seq != seen[in.Stream]+1 {
					return false
				}
				seen[in.Stream] = in.Elem.Seq
			}
		}
		return seen["a"] == next["a"] && seen["b"] == next["b"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
