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
// arrays, the memory pipeline's cache tag store and pending (MSHR)
// table with its retire buffer, and the private DRAM channel. NewSM and Fork
// take a frame from frames and reset each component for the run's
// shape, reusing every array that is large enough; Release hands it
// back. A paper experiment or a fork sweep runs thousands of short
// simulations, and without frames each one would allocate and drop a
// whole SM.
//
// Nothing that outlives a run sits in a pooled frame. The per-stream
// counters belong to the SM (a Result copies them, a probe points at
// them), and trace tables belong to their source; Release detaches the
// frame from the run's sources, tables, counters and memory system
// before it is pooled. A Snapshot holds a frame of its own, which is
// never pooled.
type frame struct {
	sched sched.Scheduler
	disp  dispatch.Dispatcher
	mem   memsys.MemSys
	dram  dram.DRAM
}

// copyFrom makes fr a copy of src's run state, the one copy behind both
// SM.Snapshot (into a new frame) and Fork (into a frame NewSM readied
// for a run of src's shape). Mutable state is copied: the active list
// and policy cursor, warp and CTA slots with their scoreboards, launch
// cursors and ready set, the cache tags, LRU ages and dirty bits, the
// pending (MSHR) table, and the DRAM bus and row state. Immutable state
// is shared: the warps' trace, outcome and footprint tables, which the
// workloads trace cache owns process-wide. fr keeps its own bindings —
// trace sources, counter sets, memory system and timing configuration —
// so a fork runs under its own spec's timing, and the copy never
// aliases src's arrays, which src's run keeps overwriting.
func (fr *frame) copyFrom(src *frame) {
	fr.sched = sched.Copy(fr.sched, src.sched)
	fr.disp.CopyFrom(&src.disp)
	fr.mem.CopyFrom(&src.mem)
	fr.dram.CopyFrom(&src.dram)
}

// frames is the process-wide free list of frames. A sync.Pool lets the
// garbage collector drop frames that sit idle, so nothing bounds it.
var frames = sync.Pool{New: func() any { return new(frame) }}
