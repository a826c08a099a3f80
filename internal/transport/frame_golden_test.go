package transport

import (
	"encoding/hex"
	"strings"
	"testing"

	"streamha/internal/element"
)

// TestKindNumbers pins every Kind's byte on the wire: a peer built from
// another revision decodes the kind byte as a number, so renumbering a
// kind breaks mixed deployments. 6 is unused.
func TestKindNumbers(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		want int
	}{
		{KindInvalid, 0},
		{KindData, 1},
		{KindAck, 2},
		{KindPing, 3},
		{KindPong, 4},
		{KindCheckpoint, 5},
		{KindReadStateResp, 7},
		{KindControl, 8},
	} {
		if int(c.kind) != c.want {
			t.Errorf("%s = %d, want %d", c.kind, int(c.kind), c.want)
		}
	}
}

// TestAppendFrameGolden pins the SHB1 frame bytes of one message of each
// kind. Each want is split by field: length prefix and kind, from, to,
// stream, seq, command, element count, state, then the element batch.
func TestAppendFrameGolden(t *testing.T) {
	for _, c := range []struct {
		msg  Message
		want []string
	}{
		{Message{Kind: KindData, Stream: "job/s1", Seq: 4, Elements: []element.Element{
			{ID: 1, Origin: 123456789, Seq: 1, Payload: -42},
			{ID: 1 << 40, Origin: -1, Seq: 99, Payload: 7, Key: 5},
		}}, []string{"63 01", "026d31", "026d32", "066a6f622f7331", "04", "00", "00", "00",
			"02",
			"0000000000000001 00000000075bcd15 0000000000000001 ffffffffffffffd6 0000000000000000",
			"0000010000000000 ffffffffffffffff 0000000000000063 0000000000000007 0000000000000005"}},
		{Message{Kind: KindAck, Stream: "job/s1", Seq: 300},
			[]string{"14 02", "026d31", "026d32", "066a6f622f7331", "ac02", "00", "00", "00", "00"}},
		{Message{Kind: KindPing, Stream: "det/1", Seq: 3},
			[]string{"12 03", "026d31", "026d32", "056465742f31", "03", "00", "00", "00", "00"}},
		{Message{Kind: KindPong, Stream: "det/1", Seq: 3},
			[]string{"12 04", "026d31", "026d32", "056465742f31", "03", "00", "00", "00", "00"}},
		{Message{Kind: KindCheckpoint, Stream: "job/sj0", Seq: 9, State: []byte{0, 1, 2, 255, 128}, ElementCount: 7},
			[]string{"19 05", "026d31", "026d32", "076a6f622f736a30", "09", "00", "07", "05 000102ff80", "00"}},
		{Message{Kind: KindReadStateResp, Stream: "job/sj1", State: []byte{0xAB, 0xCD}, ElementCount: 250},
			[]string{"17 07", "026d31", "026d32", "076a6f622f736a31", "00", "00", "fa01", "02 abcd", "00"}},
		{Message{Kind: KindControl, Stream: "job/sj0", Command: "switchover", Seq: 12},
			[]string{"1e 08", "026d31", "026d32", "076a6f622f736a30", "0c", "0a 7377697463686f766572", "00", "00", "00"}},
	} {
		want := strings.ReplaceAll(strings.Join(c.want, ""), " ", "")
		if got := hex.EncodeToString(AppendFrame(nil, "m1", "m2", &c.msg)); got != want {
			t.Errorf("%s frame\n got %s\nwant %s", c.msg.Kind, got, want)
		}
	}
}
