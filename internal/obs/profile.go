package obs

import (
	"fmt"
	"os"
	"runtime"
	rtpprof "runtime/pprof"
)

// StartProfiling enables the standard Go profilers selected by the (possibly
// empty) file paths: a CPU profile streamed to cpuPath and a heap profile
// written to memPath when the returned stop function runs. Binaries wire
// this to -cpuprofile/-memprofile flags:
//
//	stop, err := obs.StartProfiling(*cpuprofile, *memprofile)
//	if err != nil { ... }
//	defer stop()
//
// stop is never nil and is safe to call when both paths are empty.
func StartProfiling(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := rtpprof.StartCPUProfile(cpuFile); err != nil {
			//lint:ignore errdiscard error-path cleanup: the StartCPUProfile error is the one worth surfacing
			cpuFile.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			rtpprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("obs: heap profile: %w", err)
			}
			runtime.GC() // flush recently freed objects for an accurate picture
			if err := rtpprof.WriteHeapProfile(f); err != nil {
				//lint:ignore errdiscard error-path cleanup: the WriteHeapProfile error is the one worth surfacing
				f.Close()
				return fmt.Errorf("obs: heap profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
