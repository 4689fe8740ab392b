package api

import (
	"math"
	"testing"
)

func TestParseStep(t *testing.T) {
	cases := []struct {
		step    string
		wantErr bool
		from    int
		next    int // expected successor of from, when valid
	}{
		{"2x", false, 32, 64},
		{"64", false, 32, 96},
		{"1", false, 10, 11},
		{"64abc", true, 0, 0}, // fmt.Sscanf used to accept this as 64
		{"abc", true, 0, 0},
		{"", true, 0, 0},
		{"0", true, 0, 0},
		{"-8", true, 0, 0},
		{"2x2", true, 0, 0},
		{" 64", true, 0, 0},
		{"6 4", true, 0, 0},
	}
	for _, c := range cases {
		next, err := ParseStep(c.step)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseStep(%q): want error, got none", c.step)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStep(%q): %v", c.step, err)
			continue
		}
		if got := next(c.from); got != c.next {
			t.Errorf("ParseStep(%q)(%d) = %d, want %d", c.step, c.from, got, c.next)
		}
	}
}

func TestSweepValues(t *testing.T) {
	s := SweepRequest{From: 32, To: 256, Step: "2x"}
	vals, err := s.Values()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{32, 64, 128, 256}
	if len(vals) != len(want) {
		t.Fatalf("values = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v, want %v", vals, want)
		}
	}
	for _, bad := range []SweepRequest{
		{From: 0, To: 256, Step: "2x"},
		{From: 256, To: 32, Step: "2x"},
		{From: 32, To: 256, Step: "nope"},
		// A step that overflows int would wrap and never pass To.
		{From: 1, To: math.MaxInt, Step: "2x"},
		{From: math.MaxInt - 2, To: math.MaxInt, Step: "3"},
		// Too many points to expand on submit.
		{From: 1, To: 1e9, Step: "1"},
		{From: 1, To: MaxRuns + 1, Step: "1"},
	} {
		if vals, err := bad.Values(); err == nil {
			t.Errorf("Values(%d..%d step %s): %d points, want an error", bad.From, bad.To, bad.Step, len(vals))
		}
	}
	// Ranges that end at math.MaxInt or at exactly MaxRuns points
	// are whole.
	for _, c := range []struct {
		req  SweepRequest
		want int
	}{
		{SweepRequest{From: 1, To: MaxRuns, Step: "1"}, MaxRuns},
		{SweepRequest{From: math.MaxInt - 2, To: math.MaxInt, Step: "2"}, 2},
		{SweepRequest{From: 1 << 61, To: 1 << 62, Step: "2x"}, 2},
	} {
		vals, err := c.req.Values()
		if err != nil || len(vals) != c.want {
			t.Errorf("Values(%d..%d step %s) = %d points, %v; want %d", c.req.From, c.req.To, c.req.Step, len(vals), err, c.want)
		}
	}
}

func TestJobTerminal(t *testing.T) {
	for state, want := range map[string]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobFailed: true, JobCancelled: true,
	} {
		j := Job{State: state}
		if j.Terminal() != want {
			t.Errorf("Terminal(%s) = %v, want %v", state, !want, want)
		}
	}
}
