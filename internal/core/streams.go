package core

import (
	"strings"

	"repro/internal/occupancy"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// StreamSpec describes one co-resident kernel (stream) of a run; a plain
// RunSpec is a one-entry stream list.
type StreamSpec struct {
	// Kernel is the stream's workload.
	Kernel *workloads.Kernel
	// RegsPerThread overrides the stream's per-thread register
	// allocation; 0 uses the kernel's spill-free demand.
	RegsPerThread int
	// Seed perturbs the stream's per-warp random streams; 0 uses the
	// runner default (co-tenant copies of one kernel then replay
	// identical traces, which is the deterministic intent).
	Seed uint64
}

// StreamResult is one stream's share of a multi-tenant run.
type StreamResult struct {
	// Kernel names the stream's workload.
	Kernel string
	// Occupancy is the stream's share of the SM residency under the
	// round-robin joint admission (occupancy.ComputeShared).
	Occupancy occupancy.Result
	// Counters are the stream's attributed event counts: additive
	// categories sum exactly to the run's aggregate Counters across
	// streams, and Cycles is the cycle the stream's last warp exited.
	Counters stats.Counters
}

// StreamNames joins the streams' kernel names with "+", the run's
// display label (e.g. "fft+matmul").
func StreamNames(streams []StreamSpec) string {
	names := make([]string, len(streams))
	for i, st := range streams {
		names[i] = st.Kernel.Name
	}
	return strings.Join(names, "+")
}

// jointOccupancy sums the numeric residency of every stream (one
// stream's is its own); the Limiter reported is the first stream's
// (per-stream limiters live on the StreamResults).
func jointOccupancy(occs []occupancy.Result) occupancy.Result {
	var out occupancy.Result
	for i, o := range occs {
		if i == 0 {
			out.Limiter = o.Limiter
		}
		out.CTAs += o.CTAs
		out.Threads += o.Threads
		out.Warps += o.Warps
		out.RFBytesUsed += o.RFBytesUsed
		out.SharedBytesUsed += o.SharedBytesUsed
	}
	return out
}
