package probe

// Per-stream attribution. The SM declares its co-resident kernels
// (streams) with SetStreams and names the responsible stream on every
// Issue and Stall, so the per-stream breakdowns sum exactly to the
// aggregate profile by construction (the conservation invariant
// DESIGN.md §5j pins). A single-kernel run is one stream; its NDJSON
// carries no stream records (writeStreams).

// streamTally is one stream's share of the issue-slot attribution.
type streamTally struct {
	issued int64
	stalls [NumStallReasons]int64
}

// SetStreams declares the co-resident streams before the run begins.
// names label the streams (kernel names) in stream-index order. Each
// stream's cache and DRAM totals in its NDJSON record come from the
// counter set Begin binds at the same index.
func (p *Probe) SetStreams(names []string) {
	p.streamNames = append([]string(nil), names...)
	p.streamTallies = make([]streamTally, len(names))
}

// NumStreams returns the number of declared streams.
func (p *Probe) NumStreams() int { return len(p.streamNames) }

// StreamName returns the label of stream i.
func (p *Probe) StreamName(i int) string { return p.streamNames[i] }

// StreamIssued returns the instructions issued by stream i.
func (p *Probe) StreamIssued(i int) int64 { return p.streamTallies[i].issued }

// StreamStalls returns stream i's per-reason lost-slot totals.
func (p *Probe) StreamStalls(i int) [NumStallReasons]int64 { return p.streamTallies[i].stalls }
