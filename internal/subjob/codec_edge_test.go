package subjob

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// emptySnapshotGob reads testdata/empty-snapshot.gob: the snapshot
// {SubjobID: "j/empty"} as the seed's encoding/gob codec wrote it,
// recorded before that codec was deleted.
func emptySnapshotGob(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/empty-snapshot.gob")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCodecAutoDetectEdgeCases pins the codec's format sniffing on the
// degenerate payloads where a length- or content-based heuristic would
// misroute: empty and zero-PE checkpoints (whose binary encoding is
// little more than the magic preamble), truncated preambles, and
// single-byte payloads. Detection is a strict 4-byte prefix match, so
// every case must either decode through the binary path or fail cleanly,
// never panic. A gob-encoded snapshot has no magic and fails.
func TestCodecAutoDetectEdgeCases(t *testing.T) {
	emptySnap := &Snapshot{SubjobID: "j/empty"}
	emptySnapBin, err := emptySnap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	emptySnapGob := emptySnapshotGob(t)
	emptyDelta := &Delta{SubjobID: "j/empty", PrevSeq: 7}
	emptyDeltaBin, err := emptyDelta.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		payload []byte
		// wantSnap / wantDelta: decodes successfully through
		// DecodeCheckpoint as that kind. Both false: must error.
		wantSnap  bool
		wantDelta bool
	}{
		{"empty snapshot binary", emptySnapBin, true, false},
		{"empty snapshot gob", emptySnapGob, false, false},
		{"empty delta binary", emptyDeltaBin, false, true},
		{"nil payload", nil, false, false},
		{"empty payload", []byte{}, false, false},
		{"single zero byte", []byte{0}, false, false},
		{"single letter S", []byte("S"), false, false},
		{"truncated snap magic", []byte("SHS"), false, false},
		{"truncated delta magic", []byte("SHD"), false, false},
		{"bare snap magic", []byte("SHS2"), false, false},
		{"bare delta magic", []byte("SHD2"), false, false},
		{"snap magic bad version", append([]byte("SHS2"), 0xFF), false, false},
		{"delta magic bad version", append([]byte("SHD2"), 0xFF), false, false},
		{"snap magic truncated body", append([]byte("SHS2"), 1, 30), false, false},
		{"near-magic garbage", []byte("SHS3garbage"), false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap, delta, err := DecodeCheckpoint(tc.payload)
			switch {
			case tc.wantSnap:
				if err != nil || snap == nil || delta != nil {
					t.Fatalf("DecodeCheckpoint = (%v, %v, %v), want snapshot", snap, delta, err)
				}
			case tc.wantDelta:
				if err != nil || delta == nil || snap != nil {
					t.Fatalf("DecodeCheckpoint = (%v, %v, %v), want delta", snap, delta, err)
				}
			default:
				if err == nil {
					t.Fatalf("DecodeCheckpoint accepted %q", tc.payload)
				}
			}

			// The single-kind decoders and the header peek must agree
			// with the router — and none of them may panic.
			_, snapErr := DecodeSnapshot(tc.payload)
			if tc.wantSnap != (snapErr == nil) {
				t.Fatalf("DecodeSnapshot err = %v, want success=%v", snapErr, tc.wantSnap)
			}
			_, deltaErr := DecodeDelta(tc.payload)
			if tc.wantDelta != (deltaErr == nil) {
				t.Fatalf("DecodeDelta err = %v, want success=%v", deltaErr, tc.wantDelta)
			}
			info, peekErr := PeekCheckpoint(tc.payload)
			if (tc.wantSnap || tc.wantDelta) != (peekErr == nil) {
				t.Fatalf("PeekCheckpoint err = %v", peekErr)
			}
			if peekErr == nil {
				if info.SubjobID != "j/empty" || info.IsDelta != tc.wantDelta {
					t.Fatalf("PeekCheckpoint = %+v", info)
				}
				if tc.wantDelta && info.PrevSeq != 7 {
					t.Fatalf("PeekCheckpoint prev = %d, want 7", info.PrevSeq)
				}
			}
		})
	}
}

// TestCodecEmptySnapshotBinaryRouting is the regression distilled: a
// zero-PE snapshot's binary encoding is only a few bytes longer than the
// preamble, and it must round-trip through the binary decoder.
func TestCodecEmptySnapshotBinaryRouting(t *testing.T) {
	s := &Snapshot{SubjobID: "j/z"}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, []byte("SHS2")) {
		t.Fatalf("binary snapshot missing magic: %q", enc)
	}
	if isDelta(enc) {
		t.Fatal("snapshot detected as delta")
	}
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("empty binary snapshot misrouted: %v", err)
	}
	if got.SubjobID != "j/z" || len(got.PEStates) != 0 || got.ElementUnits() != 0 {
		t.Fatalf("round trip mutated empty snapshot: %+v", got)
	}
	reenc, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Fatal("empty snapshot round trip diverged")
	}

	// The same payload with its magic clipped must not decode to a zero
	// snapshot: it has to be an explicit error.
	if _, err := DecodeSnapshot(enc[1:]); err == nil {
		t.Fatal("clipped binary payload accepted")
	}
}

// TestDecodersRejectPayloadWithoutMagic: a non-empty payload that opens
// with none of the codec's magics is rejected by every decoder with
// errNoMagic, never a panic and never a zero value.
func TestDecodersRejectPayloadWithoutMagic(t *testing.T) {
	enc, err := (&Snapshot{SubjobID: "j/sj"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"gob", emptySnapshotGob(t)},
		{"clipped magic", enc[1:]},
		{"near-magic", []byte("SHS3garbage")},
		{"single zero byte", []byte{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if s, d, err := DecodeCheckpoint(tc.payload); !errors.Is(err, errNoMagic) || s != nil || d != nil {
				t.Errorf("DecodeCheckpoint = (%v, %v, %v)", s, d, err)
			}
			var dec Decoder
			if s, d, err := dec.Decode(tc.payload); !errors.Is(err, errNoMagic) || s != nil || d != nil {
				t.Errorf("Decoder.Decode = (%v, %v, %v)", s, d, err)
			}
			if s, err := DecodeSnapshot(tc.payload); !errors.Is(err, errNoMagic) || s != nil {
				t.Errorf("DecodeSnapshot = (%v, %v)", s, err)
			}
			if info, err := PeekCheckpoint(tc.payload); !errors.Is(err, errNoMagic) || info != (CheckpointInfo{}) {
				t.Errorf("PeekCheckpoint = (%+v, %v)", info, err)
			}
		})
	}
}

// TestCodecVersionErrorsAreDiagnosable: a future-version payload must be
// rejected with an error naming the version, not a generic parse
// failure, so operators can tell a format skew from corruption.
func TestCodecVersionErrorsAreDiagnosable(t *testing.T) {
	for _, magic := range []string{"SHS2", "SHD2"} {
		payload := append([]byte(magic), 9)
		_, _, err := DecodeCheckpoint(payload)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s version-9 payload: err = %v, want version error", magic, err)
		}
	}
}
