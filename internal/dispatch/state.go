package dispatch

import "fmt"

// CTAState is one resident CTA slot's frozen bookkeeping. The slot's
// warp indices are structural (slot i always owns warps i*warpsPer ...)
// and are not captured.
type CTAState struct {
	// ID is the grid CTA index resident in the slot, -1 when empty.
	ID int
	// LiveWarps and BarWaits are the slot's retirement and barrier
	// arrival counts.
	LiveWarps int
	BarWaits  int
}

// State is a frozen image of the dispatcher: every warp slot, every CTA
// slot, the grid launch cursor, and the ready bitmask.
//
// Warp entries are value copies, which deep-copies the per-register
// scoreboard (an array) but shares the Code, Outcomes and Footprints
// tables — those are immutable by the TraceSource contract (the
// workloads trace cache memoizes them process-wide), so sharing them
// across any number of forks is the copy-on-write half of the snapshot
// design: a 64-warp snapshot costs a few KB of mutable state, never the
// traces.
type State struct {
	Warps []Warp
	CTAs  []CTAState
	// NextCTA is the grid launch cursor; TotalCTAs and WarpsPer pin the
	// grid shape so Restore can refuse a mismatched source.
	NextCTA   int
	TotalCTAs int
	WarpsPer  int
	LiveWarps int
	ReadyMask uint64
}

// Snapshot captures the dispatcher state as an immutable State. It is
// defined for single-stream dispatchers only — the stream list is
// prefix-defining for snapshot/fork, and multi-stream runs refuse
// capture at the SM layer — and returns nil on a multi-stream
// dispatcher.
func (d *Dispatcher) Snapshot() *State {
	if len(d.streams) != 1 {
		return nil
	}
	st := &State{
		Warps:     append([]Warp(nil), d.warps...),
		CTAs:      make([]CTAState, len(d.ctas)),
		NextCTA:   d.streams[0].nextCTA,
		TotalCTAs: d.streams[0].totalCTAs,
		WarpsPer:  d.streams[0].warpsPer,
		LiveWarps: d.liveWarps,
		ReadyMask: d.readyMask,
	}
	for i := range d.ctas {
		st.CTAs[i] = CTAState{ID: d.ctas[i].id, LiveWarps: d.ctas[i].liveWarps, BarWaits: d.ctas[i].barWaits}
	}
	return st
}

// Restore overwrites the dispatcher state with a previously captured
// State. It copies out of st (never aliases its slices), so one State
// can seed any number of forks, concurrently. The grid shape and slot
// counts must match. Live warps keep the tables the snapshot holds:
// they are valid because a fork keeps its parent's bank-model variant.
func (d *Dispatcher) Restore(st *State) error {
	if len(d.streams) != 1 {
		return fmt.Errorf("dispatch: multi-stream dispatchers do not restore snapshots (streams are prefix-defining)")
	}
	stream := &d.streams[0]
	if len(st.Warps) != len(d.warps) || len(st.CTAs) != len(d.ctas) {
		return fmt.Errorf("dispatch: slot shape changed across a snapshot: %d/%d warps, %d/%d CTAs",
			len(st.Warps), len(d.warps), len(st.CTAs), len(d.ctas))
	}
	if st.TotalCTAs != stream.totalCTAs || st.WarpsPer != stream.warpsPer {
		return fmt.Errorf("dispatch: grid changed across a snapshot: %dx%d state, %dx%d source",
			st.TotalCTAs, st.WarpsPer, stream.totalCTAs, stream.warpsPer)
	}
	copy(d.warps, st.Warps)
	for i := range d.ctas {
		d.ctas[i].id = st.CTAs[i].ID
		d.ctas[i].liveWarps = st.CTAs[i].LiveWarps
		d.ctas[i].barWaits = st.CTAs[i].BarWaits
	}
	stream.nextCTA = st.NextCTA
	d.liveWarps = st.LiveWarps
	stream.liveWarps = st.LiveWarps
	d.readyMask = st.ReadyMask
	d.readyLow, d.lowExact = -noWake, false // a bound; the next scan makes it exact
	if stream.liveWarps == 0 && stream.nextCTA >= stream.totalCTAs {
		if stream.doneAt < 0 {
			stream.doneAt = 0
		}
	} else {
		stream.doneAt = -1
	}
	return nil
}
