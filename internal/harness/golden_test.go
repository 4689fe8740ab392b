package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/harness -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite testdata/golden from current output")

// schedFlag selects the warp-scheduling policy the experiments run under.
// The golden files are pinned for the default (two-level) policy; with a
// non-default policy TestGoldenTables still renders every experiment —
// asserting the full result surface stays runnable under the alternative
// scheduler — but skips the byte comparison.
//
//	go test ./internal/harness -run TestGoldenTables -sched gto
var schedFlag = flag.String("sched", "", "warp scheduler to run the experiments under")

// renderAll regenerates every experiment exactly once per test binary,
// sharing one Runner so baselines are cached across experiments the same
// way cmd/paper runs them. Both the golden comparison and the render
// sanity checks consume this.
var renderAll = sync.OnceValues(func() (map[string]string, error) {
	policy, err := sched.ParsePolicy(*schedFlag)
	if err != nil {
		return nil, err
	}
	r := core.NewRunner()
	r.Params.Scheduler = policy
	out := make(map[string]string, len(Experiments))
	for _, name := range Experiments {
		tab, err := Run(r, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = tab.String()
	}
	return out, nil
})

// goldenPath returns the committed rendering of one experiment.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// TestGoldenTables pins the paper's entire result surface: the rendered
// output of all 15 experiments must match the committed golden files
// byte for byte. Run with -update after an intentional model change and
// review the diff like any other code change.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration skipped in -short mode")
	}
	rendered, err := renderAll()
	if err != nil {
		t.Fatal(err)
	}
	if *schedFlag != "" && *schedFlag != string(sched.TwoLevel) {
		// Non-default policy: every experiment rendered without error is
		// the assertion; the goldens only pin the default scheduler.
		t.Logf("ran all %d experiments under -sched %s; golden comparison skipped", len(Experiments), *schedFlag)
		return
	}
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range Experiments {
		t.Run(name, func(t *testing.T) {
			got := rendered[name]
			path := goldenPath(name)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from %s (regenerate with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
					name, path, got, want)
			}
		})
	}
}
