package main

import (
	"os"
	"runtime"
	"runtime/pprof"

	"flag"
)

// profileFlags carries the -cpuprofile/-memprofile options shared by
// the measurement subcommand table1.  The profiles are the
// standard pprof formats: `go tool pprof <binary> <file>` reads them.
type profileFlags struct {
	cpu *string
	mem *string
}

// addProfileFlags registers the profiling options on a subcommand's
// flag set.
func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write an allocation profile to this file on exit"),
	}
}

// start begins CPU profiling when requested and returns a stop
// function that finishes the CPU profile and writes the heap profile.
// Call stop exactly once, after the measured work.
func (p *profileFlags) start() (stop func() error, err error) {
	var cpuFile *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
