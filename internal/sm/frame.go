package sm

import (
	"sync"

	"repro/internal/dispatch"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/sched"
)

// frame is the per-run mutable state of one SM, recycled from run to
// run: the scheduler's active list, the dispatcher's warp, slot and CTA
// arrays, the memory pipeline's cache tag store, pending (MSHR) table
// and scratch buffers, and the private DRAM channel. NewSM and Fork
// take a frame from frames and reset each component for the run's
// shape, reusing every array that is large enough; Release hands it
// back. A paper experiment or a fork sweep runs thousands of short
// simulations, and without frames each one would allocate and drop a
// whole SM.
//
// Nothing that outlives a run sits in a frame. The per-stream counters
// belong to the SM (a Result copies them, a probe points at them),
// snapshot states copy out of the frame, and trace tables belong to
// their source; Release detaches the frame from the run's sources,
// tables, counters and memory system before it is pooled.
type frame struct {
	sched sched.Scheduler
	disp  dispatch.Dispatcher
	mem   memsys.MemSys
	dram  dram.DRAM
}

// frames is the process-wide free list of frames. A sync.Pool lets the
// garbage collector drop frames that sit idle, so nothing bounds it.
var frames = sync.Pool{New: func() any { return new(frame) }}
