package sched

// twoLevel is the paper's two-level scheduler: a fixed-size active set
// walked round-robin from a rotating cursor.
type twoLevel struct {
	capacity int
	active   []int
	rr       int // round-robin cursor into active
}

func (s *twoLevel) Refill(pool Pool, now int64) {
	s.active = refill(s.active, s.capacity, pool, now)
}

func (s *twoLevel) Active() []int { return s.active }
func (s *twoLevel) Len() int      { return len(s.active) }

// Walk tries candidates at positions rr, rr+1, ... modulo the set size.
// A descheduled candidate is removed in place and the walk continues at
// the position that slid into its slot; an issuing candidate advances the
// cursor past itself. The cursor stays below the set size, so rr+k is
// below twice the size and one subtraction wraps it.
func (s *twoLevel) Walk(visit func(w int) Action) bool {
	n := len(s.active)
	for k := 0; k < n; k++ {
		pos := s.rr + k
		if pos >= n {
			pos -= n
		}
		switch visit(s.active[pos]) {
		case Keep:
		case Deschedule:
			s.remove(pos)
			n = len(s.active)
			k--
		case Issued:
			s.advanceCursor(pos)
			return true
		case IssuedGone:
			// Cursor bookkeeping happens against the pre-removal set, as
			// the issue slot was consumed while the warp was still a
			// member; remove then fixes the cursor up.
			s.advanceCursor(pos)
			s.remove(pos)
			return true
		}
	}
	return false
}

// advanceCursor repositions the round-robin cursor after an issue at
// pos, a position in the set.
func (s *twoLevel) advanceCursor(pos int) {
	if s.rr = pos + 1; s.rr == len(s.active) {
		s.rr = 0
	}
}

// remove deletes the active-set entry at position pos, keeping the
// cursor on the element it pointed at (or wrapping it into range).
func (s *twoLevel) remove(pos int) {
	s.active = append(s.active[:pos], s.active[pos+1:]...)
	if s.rr > pos {
		s.rr--
	}
	if s.rr >= len(s.active) {
		s.rr = 0
	}
}
