package machine

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"streamha/internal/clock"
)

// medianExecute runs n Executes of work on cpu and returns the median wall
// time, checking on the way that each is charged as exactly work and takes
// at least atLeast.
func medianExecute(t *testing.T, cpu *CPU, n int, work, atLeast time.Duration) time.Duration {
	t.Helper()
	took := make([]time.Duration, n)
	for i := range took {
		before := cpu.WorkDone()
		start := time.Now()
		cpu.Execute(work)
		took[i] = time.Since(start)
		if did := cpu.WorkDone() - before; did != work {
			t.Fatalf("Execute(%v) advanced WorkDone by %v", work, did)
		}
		if took[i] < atLeast {
			t.Fatalf("Execute(%v) took %v, under the %v it models", work, took[i], atLeast)
		}
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return took[n/2]
}

// TestShortExecuteCostsWhatItModels: a sub-millisecond Execute used to take
// 1.1 ms whatever it asked for, because the sleep under it was a runtime
// timer in an idle process. The upper bounds hold where clock.Real has the
// precise service (Linux); the lower ones and the accounting hold anywhere.
func TestShortExecuteCostsWhatItModels(t *testing.T) {
	const work = 200 * time.Microsecond
	cpu := NewCPU(clock.New())

	idle := medianExecute(t, cpu, 50, work, work)
	cpu.SetBackgroundLoad(0.5)
	loaded := medianExecute(t, cpu, 50, work, 2*work)
	t.Logf("Execute(%v): median %v idle, %v at half load", work, idle, loaded)
	if runtime.GOOS != "linux" {
		return
	}
	if idle > 600*time.Microsecond {
		t.Errorf("median idle Execute(%v) took %v, want <= 600µs", work, idle)
	}
	if loaded > 1000*time.Microsecond {
		t.Errorf("median Execute(%v) at half load took %v, want about %v and <= 1ms", work, loaded, 2*work)
	}
}
