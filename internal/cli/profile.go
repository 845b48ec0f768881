package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfile begins CPU profiling when -cpuprofile is set and returns a
// stop function that finishes the CPU profile and, when -memprofile is set,
// captures the heap profile. Stop is idempotent. With no profiling flags set,
// startProfile is a no-op returning a no-op stop.
func (c CampaignFlags) startProfile() (stop func() error, err error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cli: creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cli: starting CPU profile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && first == nil {
				first = fmt.Errorf("cli: closing CPU profile: %w", err)
			}
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				if first == nil {
					first = fmt.Errorf("cli: creating heap profile: %w", err)
				}
				return first
			}
			runtime.GC() // materialize the live heap before snapshotting it
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = fmt.Errorf("cli: writing heap profile: %w", err)
			}
			if err := f.Close(); err != nil && first == nil {
				first = fmt.Errorf("cli: closing heap profile: %w", err)
			}
		}
		return first
	}, nil
}
