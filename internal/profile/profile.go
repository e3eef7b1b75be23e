// Package profile writes the CPU and heap profiles behind the commands'
// -cpuprofile and -memprofile flags, using runtime/pprof. Nothing is
// written unless a file name is given.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuFile when it is non-empty. The
// returned stop function ends that profile and, when memFile is
// non-empty, writes a heap profile there; call it once, after the work
// to be profiled.
func Start(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("profile: start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("profile: %w", err)
			}
		}
		if memFile == "" {
			return nil
		}
		f, err := os.Create(memFile)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		runtime.GC() // settle the heap so the profile shows live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("profile: write heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		return nil
	}, nil
}
