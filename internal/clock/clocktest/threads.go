// Package clocktest holds what the tests of more than one package need to
// check that a waiter's goroutine took its operating-system thread with it.
package clocktest

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// ProcessThreads reads the process's thread count from /proc. It skips the
// test on a platform that has none.
func ProcessThreads(t testing.TB) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no thread count on this platform: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Threads:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return n
		}
	}
	t.Skip("no Threads: line in /proc/self/status")
	return 0
}
