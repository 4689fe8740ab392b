package sched

// gto is the greedy-then-oldest scheduler: the warp that issued last
// retries first (greedy), and when it cannot issue the remaining active
// warps are tried in activation order — the active list is append-only on
// promotion, so list order is oldest-activation-first. Promotion and
// long-latency descheduling follow the same two-level rules as the
// paper's policy; only the issue ordering differs, which is what makes a
// TwoLevel-vs-GTO differential isolate the policy itself.
type gto struct {
	capacity int
	active   []int // activation (oldest-first) order
	last     int   // warp that issued most recently, -1 when none
}

func (s *gto) Refill(pool Pool, now int64) {
	s.active = refill(s.active, s.capacity, pool, now)
}

func (s *gto) Active() []int { return s.active }
func (s *gto) Len() int      { return len(s.active) }

func (s *gto) Walk(visit func(w int) Action) bool {
	// Greedy pass: retry the last issuer while it remains active.
	greedyHeld := -1
	if s.last >= 0 {
		if pos := s.find(s.last); pos >= 0 {
			switch visit(s.last) {
			case Keep:
				greedyHeld = s.last // visited; skip in the oldest pass
			case Deschedule:
				s.removeAt(pos)
			case Issued:
				return true
			case IssuedGone:
				s.removeAt(pos)
				s.last = -1
				return true
			}
		}
	}
	// Oldest pass: activation order over the rest of the set.
	for pos := 0; pos < len(s.active); pos++ {
		w := s.active[pos]
		if w == greedyHeld {
			continue
		}
		switch visit(w) {
		case Keep:
		case Deschedule:
			s.removeAt(pos)
			pos--
		case Issued:
			s.last = w
			return true
		case IssuedGone:
			s.removeAt(pos)
			if s.last == w {
				s.last = -1
			}
			return true
		}
	}
	return false
}

// find returns the active-list position of warp w, or -1.
func (s *gto) find(w int) int {
	for i, a := range s.active {
		if a == w {
			return i
		}
	}
	return -1
}

// removeAt deletes the active-list entry at position pos, preserving
// activation order.
func (s *gto) removeAt(pos int) {
	s.active = append(s.active[:pos], s.active[pos+1:]...)
}
