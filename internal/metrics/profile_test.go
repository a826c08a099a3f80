package metrics

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestWithCPUProfile(t *testing.T) {
	boom := errors.New("boom")
	if err := WithCPUProfile("", func() error { return boom }); err != boom {
		t.Fatalf("without a path: got %v, want f's error", err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	ran := false
	if err := WithCPUProfile(path, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("f did not run")
	}
	// Even an empty profile has a header.
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("profile file: %v, %v", st, err)
	}
	if err := WithCPUProfile(filepath.Join(path, "under-a-file"), func() error { ran = false; return nil }); err == nil || !ran {
		t.Fatalf("an uncreatable path: err %v, f ran %v; want an error before f runs", err, !ran)
	}
}
