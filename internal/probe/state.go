package probe

import (
	"io"

	"repro/internal/config"
	"repro/internal/stats"
)

// State is a frozen image of a probe mid-run: accumulators, the open
// sampling window, the completed interval series, and the counter
// snapshots that turn run counters into per-interval deltas. It exists
// so a forked SM's probe continues the parent's stream exactly — the
// NDJSON records a restored probe emits from cycle K onward are byte
// for byte what the parent would have written.
//
// Not captured: the output writer and encode buffer (a fork streams to
// its own writer; bytes the parent already wrote belong to the caller),
// and the live counters pointer, which must be rebound to the fork's
// counter set (Rebind) — pointing a fork's probe at the parent's
// counters would make interval deltas read the wrong run.
type State struct {
	Interval   int64
	Meta       [][2]string
	StartCycle int64
	Next       int64
	Began      bool
	Ended      bool

	Issued int64
	Stalls [NumStallReasons]int64

	BankAccess   [config.NumBanks]int64
	BankConflict [config.NumBanks]int64

	AccHits, AccMerged, AccMisses int64
	MissSectors                   int64

	Cur       Interval
	Intervals []Interval

	SnapProbes, SnapHits, SnapDRAM int64
}

// Snapshot captures the probe state as an immutable State. A nil probe
// snapshots to nil (unprobed runs stay unprobed across forks).
func (p *Probe) Snapshot() *State {
	if p == nil {
		return nil
	}
	st := &State{
		Interval:     p.interval,
		Meta:         make([][2]string, len(p.meta)),
		StartCycle:   p.startCycle,
		Next:         p.next,
		Began:        p.began,
		Ended:        p.ended,
		Issued:       p.issued,
		Stalls:       p.stalls,
		BankAccess:   p.bankAccess,
		BankConflict: p.bankConflict,
		AccHits:      p.accHits,
		AccMerged:    p.accMerged,
		AccMisses:    p.accMisses,
		MissSectors:  p.missSectors,
		Cur:          p.cur,
		Intervals:    append([]Interval(nil), p.intervals...),
		SnapProbes:   p.snapProbes,
		SnapHits:     p.snapHits,
		SnapDRAM:     p.snapDRAM,
	}
	for i, kv := range p.meta {
		st.Meta[i] = [2]string{kv.key, kv.value}
	}
	return st
}

// Restore builds a probe resuming from st, streaming any further NDJSON
// records to out (nil disables streaming). The parent's meta record and
// completed intervals were already written to the parent's writer, so a
// restored probe never re-emits them; concatenating the parent's bytes
// with the fork's reproduces the single-run stream. The probe's counters
// pointer starts nil — the forked SM must call Rebind before running.
func Restore(st *State, out io.Writer) *Probe {
	if st == nil {
		return nil
	}
	p := &Probe{
		interval:     st.Interval,
		out:          out,
		meta:         make([]metaKV, len(st.Meta)),
		startCycle:   st.StartCycle,
		next:         st.Next,
		began:        st.Began,
		ended:        st.Ended,
		issued:       st.Issued,
		stalls:       st.Stalls,
		bankAccess:   st.BankAccess,
		bankConflict: st.BankConflict,
		accHits:      st.AccHits,
		accMerged:    st.AccMerged,
		accMisses:    st.AccMisses,
		missSectors:  st.MissSectors,
		cur:          st.Cur,
		intervals:    append(make([]Interval, 0, len(st.Intervals)+256), st.Intervals...),
		snapProbes:   st.SnapProbes,
		snapHits:     st.SnapHits,
		snapDRAM:     st.SnapDRAM,
		encBuf:       make([]byte, 0, 512),
	}
	for i, kv := range st.Meta {
		p.meta[i] = metaKV{key: kv[0], value: kv[1]}
	}
	return p
}

// Rebind points the probe at the counter sets of the SM it now observes.
// It is the snapshot/fork hook: a restored probe's interval deltas must
// read the forked run's counters, not the parent's. The SM calls it
// during Fork; it has no other use.
func (p *Probe) Rebind(counters []*stats.Counters) { p.counters = counters }
