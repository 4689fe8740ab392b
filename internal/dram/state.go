package dram

// State is a frozen image of the channel: bus occupancy, traffic
// tallies, and the open-row tracker. Every field is a scalar, so the
// value copy Snapshot returns is already deep.
type State struct {
	BusFreeAt  int64
	Reads      int64
	Writes     int64
	StallCycle int64
	OpenRow    uint32
	HasRow     bool
	RowHits    int64
	RowMisses  int64
}

// Snapshot captures the channel state.
func (d *DRAM) Snapshot() State {
	return State{
		BusFreeAt:  d.busFreeAt,
		Reads:      d.reads,
		Writes:     d.writes,
		StallCycle: d.stallCycle,
		OpenRow:    d.openRow,
		HasRow:     d.hasRow,
		RowHits:    d.rowHits,
		RowMisses:  d.rowMisses,
	}
}

// Restore overwrites the channel state with a previously captured State.
// The configuration is untouched: a fork built with a divergent Config
// resumes the warm prefix's bus and row state under its own timing.
func (d *DRAM) Restore(st State) {
	d.busFreeAt = st.BusFreeAt
	d.reads = st.Reads
	d.writes = st.Writes
	d.stallCycle = st.StallCycle
	d.openRow = st.OpenRow
	d.hasRow = st.HasRow
	d.rowHits = st.RowHits
	d.rowMisses = st.RowMisses
}

// SetConfig replaces the channel configuration mid-run (the snapshot
// machinery's param-switch-at-K semantics), normalizing zero fields the
// same way New does. Bus and row state carry over.
func (d *DRAM) SetConfig(cfg Config) {
	d.cfg = cfg.Normalized()
}
