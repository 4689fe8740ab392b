package plan

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"repro/api"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// Flags holds the command-line flags that spell one api.RunRequest: the
// kernel or co-resident stream mix, the design and its capacities, and
// the warp scheduler. cmd/smsim and cmd/smprof both build their request
// here, so a flag spells the same simulation in either tool, and the
// same one smserve runs for the equivalent request body.
//
// Usage in a main:
//
//	rf := plan.AddFlags(flag.CommandLine)
//	flag.Parse()
//	req, err := rf.Request()
//	if err != nil { ... exit 2 ... }
//	run, err := plan.Resolve(req)
type Flags struct {
	Kernel  string
	Streams string
	Design  string
	// RFKB, SharedKB and CacheKB size the partitioned design; TotalKB
	// sizes the unified and Fermi-like ones.
	RFKB, SharedKB, CacheKB, TotalKB int
	Threads                          int
	Regs                             int
	Sched                            string
	// Machine is the -machine description file; only mains that call
	// AddMachineFlag accept it.
	Machine string
}

// AddFlags registers the request flags on fs and returns the Flags they
// parse into. Call before fs is parsed.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Kernel, "kernel", "", "benchmark name (see -list)")
	fs.StringVar(&f.Design, "design", "partitioned", "partitioned | unified | fermi")
	fs.IntVar(&f.RFKB, "rf", 256, "register file capacity in KB (partitioned design)")
	fs.IntVar(&f.SharedKB, "shm", 64, "shared memory capacity in KB (partitioned design)")
	fs.IntVar(&f.CacheKB, "cache", 64, "cache capacity in KB (partitioned design)")
	fs.IntVar(&f.TotalKB, "total", 384, "total unified capacity in KB (unified/fermi designs)")
	fs.IntVar(&f.Threads, "threads", 0, "resident thread cap (0 = architectural limit)")
	fs.IntVar(&f.Regs, "regs", 0, "registers allocated per thread (0 = spill-free demand)")
	fs.StringVar(&f.Sched, "sched", "", "warp scheduler: twolevel (default) | gto")
	fs.StringVar(&f.Streams, "streams", "", "run several kernels co-resident on one SM, \"+\"-joined (e.g. needle+matrixmul)")
	return f
}

// AddMachineFlag registers -machine on fs.
func (f *Flags) AddMachineFlag(fs *flag.FlagSet) {
	fs.StringVar(&f.Machine, "machine", "", "load a JSON machine description (overrides -rf/-shm/-cache/-threads and timing; excludes -design unified|fermi)")
}

// Request maps the parsed flags to one api.RunRequest. Every error is a
// usage error (mains exit 2): an unknown kernel, scheduler or design, a
// malformed stream list, -kernel with -streams, -machine with a derived
// design, and a non-positive -total for the unified or Fermi-like
// design, which the request would otherwise read as "no derived design"
// and quietly run the partitioned baseline.
func (f *Flags) Request() (api.RunRequest, error) {
	var req api.RunRequest
	policy, err := sched.ParsePolicy(f.Sched)
	if err != nil {
		return req, err
	}
	if f.Streams != "" {
		if f.Kernel != "" {
			return req, errors.New("-kernel and -streams are mutually exclusive")
		}
		names := strings.Split(f.Streams, "+")
		if len(names) < 2 {
			return req, fmt.Errorf("-streams wants at least two \"+\"-joined kernels, got %q", f.Streams)
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if _, err := workloads.ByName(name); err != nil {
				return req, err
			}
			req.Streams = append(req.Streams, api.StreamRequest{Kernel: name})
		}
	} else {
		if f.Kernel == "" {
			return req, errors.New("-kernel is required (try -list)")
		}
		if _, err := workloads.ByName(f.Kernel); err != nil {
			return req, err
		}
		req.Kernel, req.RegsPerThread = f.Kernel, f.Regs
	}
	if f.Machine != "" {
		if f.Design == "unified" || f.Design == "fermi" {
			return req, fmt.Errorf("-design %s cannot be combined with -machine (the machine file sets the design)", f.Design)
		}
		d, err := machine.Read(f.Machine)
		if err != nil {
			return req, err
		}
		if f.Sched != "" {
			d.Timing.Scheduler = string(policy) // the flag overrides the machine file
		}
		req.Machine = d
		return req, nil
	}
	req.Machine.MaxThreads = f.Threads
	req.Machine.Timing.Scheduler = string(policy)
	switch f.Design {
	case "partitioned":
		req.Machine.RFKB, req.Machine.SharedKB, req.Machine.CacheKB = f.RFKB, f.SharedKB, f.CacheKB
	case "unified", "fermi":
		if f.TotalKB <= 0 {
			return req, fmt.Errorf("-design %s needs a positive -total capacity in KB, got %d", f.Design, f.TotalKB)
		}
		if f.Design == "unified" {
			req.AllocTotalKB = f.TotalKB
		} else {
			req.FermiTotalKB = f.TotalKB
		}
	default:
		return req, fmt.Errorf("unknown design %q", f.Design)
	}
	return req, nil
}
