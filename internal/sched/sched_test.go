package sched

import (
	"reflect"
	"testing"
)

// fakePool is a single-stream Pool over explicit (wake, ready) warp
// states.
type fakePool struct {
	wake      []int64
	ready     []bool
	activated []int
}

func (p *fakePool) NumStreams() int { return 1 }

func (p *fakePool) Stream(int) int { return 0 }

func (p *fakePool) MinReady(now int64, _ int) (int, int64, bool) {
	best, bestWake := -1, int64(0)
	for i := range p.ready {
		if p.ready[i] && p.wake[i] <= now && (best < 0 || p.wake[i] < bestWake) {
			best, bestWake = i, p.wake[i]
		}
	}
	return best, bestWake, best >= 0
}

func (p *fakePool) Activate(w int) {
	p.ready[w] = false
	p.activated = append(p.activated, w)
}

// policies are the selectable policies, default first.
var policies = []Policy{TwoLevel, GTO}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", TwoLevel, true},
		{"twolevel", TwoLevel, true},
		{"gto", GTO, true},
		{"GTO", "", false},
		{"round-robin", "", false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if _, err := New(nil, "bogus", 8); err == nil {
		t.Error("New with an unknown policy should fail")
	}
	if _, err := New(nil, TwoLevel, 0); err == nil {
		t.Error("New with zero capacity should fail")
	}
}

func TestRefillOldestWakeupFirst(t *testing.T) {
	for _, pol := range policies {
		s, err := New(nil, pol, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Warps 0..3 ready with wakes 30, 10, 10, 20: capacity 2 promotes
		// the oldest wake first, lowest index breaking the 10/10 tie.
		pool := &fakePool{
			wake:  []int64{30, 10, 10, 20},
			ready: []bool{true, true, true, true},
		}
		s.Refill(pool, 100)
		if want := []int{1, 2}; !reflect.DeepEqual(pool.activated, want) {
			t.Errorf("%s: promoted %v, want %v", pol, pool.activated, want)
		}
		if s.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", pol, s.Len())
		}
		// A warp whose wake is still in the future is not eligible.
		pool2 := &fakePool{wake: []int64{500}, ready: []bool{true}}
		s2, _ := New(nil, pol, 2)
		s2.Refill(pool2, 100)
		if s2.Len() != 0 {
			t.Errorf("%s: promoted a warp before its wake cycle", pol)
		}
	}
}

// fill promotes warps 0..n-1 (all wake 0) into the scheduler.
func fill(t *testing.T, s Scheduler, n int) {
	t.Helper()
	pool := &fakePool{wake: make([]int64, n), ready: make([]bool, n)}
	for i := range pool.ready {
		pool.ready[i] = true
	}
	s.Refill(pool, 0)
	if s.Len() != n {
		t.Fatalf("fill: Len = %d, want %d", s.Len(), n)
	}
}

// issueOn returns a visitor that reports Issued for warp w and Keep
// otherwise, recording the visit order.
func issueOn(w int, order *[]int) func(int) Action {
	return func(cand int) Action {
		*order = append(*order, cand)
		if cand == w {
			return Issued
		}
		return Keep
	}
}

func TestTwoLevelRoundRobinAdvances(t *testing.T) {
	s, _ := New(nil, TwoLevel, 4)
	fill(t, s, 4)

	var order []int
	if !s.Walk(issueOn(0, &order)) {
		t.Fatal("walk found no issuer")
	}
	// Round robin: the next walk starts past the issuer.
	order = nil
	s.Walk(issueOn(1, &order))
	if order[0] != 1 {
		t.Errorf("after issuing warp 0, next walk started at %v, want warp 1 first", order)
	}
}

func TestTwoLevelDescheduleMidWalk(t *testing.T) {
	s, _ := New(nil, TwoLevel, 4)
	fill(t, s, 4)

	// Every candidate descheduled: the walk must visit all four exactly
	// once despite in-place removal, and empty the set.
	var order []int
	issued := s.Walk(func(w int) Action {
		order = append(order, w)
		return Deschedule
	})
	if issued {
		t.Error("walk reported an issue with no issuer")
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("deschedule walk visited %v, want %v", order, want)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after descheduling all, want 0", s.Len())
	}
}

func TestTwoLevelIssuedGoneRemoves(t *testing.T) {
	s, _ := New(nil, TwoLevel, 4)
	fill(t, s, 4)

	// Warp 1 issues a barrier/exit-class instruction: it leaves the set
	// and the cursor lands on its successor (warp 2).
	s.Walk(func(w int) Action {
		if w == 1 {
			return IssuedGone
		}
		return Keep
	})
	if want := []int{0, 2, 3}; !reflect.DeepEqual(s.Active(), want) {
		t.Fatalf("Active = %v, want %v", s.Active(), want)
	}
	var order []int
	s.Walk(issueOn(-1, &order))
	if want := []int{2, 3, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("post-removal walk order %v, want %v", order, want)
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	s, _ := New(nil, GTO, 4)
	fill(t, s, 4)

	// First walk issues in activation (oldest) order: warp 0.
	var order []int
	s.Walk(issueOn(0, &order))
	if order[0] != 0 {
		t.Fatalf("first GTO walk started at %v, want warp 0", order)
	}
	// Greedy pass: the last issuer is retried first even mid-list.
	order = nil
	s.Walk(issueOn(0, &order))
	if order[0] != 0 {
		t.Errorf("GTO did not retry the last issuer first: %v", order)
	}
	// When the greedy warp cannot issue, the oldest pass takes over and
	// does not revisit it.
	order = nil
	s.Walk(func(w int) Action {
		order = append(order, w)
		if w == 2 {
			return Issued
		}
		return Keep
	})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("GTO fallback order %v, want greedy 0 then oldest 1, 2", order)
	}
	// The new issuer becomes the greedy warp.
	order = nil
	s.Walk(issueOn(2, &order))
	if order[0] != 2 {
		t.Errorf("GTO greedy warp not updated: %v", order)
	}
}

func TestGTOIssuedGoneClearsGreedy(t *testing.T) {
	s, _ := New(nil, GTO, 4)
	fill(t, s, 4)

	s.Walk(issueOn(1, new([]int)))
	// The greedy warp exits: it must leave the set and the next walk
	// falls back to pure oldest-first.
	s.Walk(func(w int) Action {
		if w == 1 {
			return IssuedGone
		}
		return Keep
	})
	if want := []int{0, 2, 3}; !reflect.DeepEqual(s.Active(), want) {
		t.Fatalf("Active = %v, want %v", s.Active(), want)
	}
	var order []int
	s.Walk(issueOn(-1, &order))
	if want := []int{0, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("post-exit walk order %v, want oldest-first %v", order, want)
	}
}

// TestNewReusesPrev: a scheduler built on a used one starts exactly as
// a new one does — empty active set, cursor at rest — whichever policy
// either has, and takes prev itself when the policies match.
func TestNewReusesPrev(t *testing.T) {
	for _, from := range policies {
		for _, to := range policies {
			prev, _ := New(nil, from, 4)
			fill(t, prev, 4)
			prev.Walk(func(w int) Action {
				if w == 2 {
					return Issued
				}
				return Keep
			})
			got, err := New(prev, to, 6)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := New(nil, to, 6)
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Errorf("%s -> %s: state %+v, want a new scheduler's %+v", from, to, got.Snapshot(), want.Snapshot())
			}
			if (got == prev) != (from == to) {
				t.Errorf("%s -> %s: reused prev = %v", from, to, got == prev)
			}
			fill(t, got, 6)
		}
	}
}
