package metrics

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// WithCPUProfile runs f and, when path is not empty, writes a CPU profile
// of the process for the time f ran to path (read it with go tool pprof).
// It is what the -cpuprofile flag of the commands does.
func WithCPUProfile(path string, f func() error) error {
	if path == "" {
		return f()
	}
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	err = f()
	pprof.StopCPUProfile()
	if cerr := out.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("cpuprofile: %w", cerr)
	}
	return err
}
