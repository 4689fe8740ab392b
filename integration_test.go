package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runTool executes one of the module's commands via `go run`.
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestCLISmoke exercises every command end to end. It compiles and runs
// each tool, so it is skipped in -short mode.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	tmp := t.TempDir()

	t.Run("smsim-list", func(t *testing.T) {
		out := runTool(t, "./cmd/smsim", "-list")
		for _, want := range []string{"needle", "dgemm", "register limited"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in -list output", want)
			}
		}
	})

	t.Run("smsim-unified", func(t *testing.T) {
		out := runTool(t, "./cmd/smsim", "-kernel", "needle", "-design", "unified")
		if !strings.Contains(out, "threads=1024") || !strings.Contains(out, "Energy (J)") {
			t.Errorf("unexpected smsim output:\n%s", out)
		}
	})

	t.Run("smsim-machine-roundtrip", func(t *testing.T) {
		mf := filepath.Join(tmp, "machine.json")
		runTool(t, "./cmd/smsim", "-emit-machine", mf)
		if _, err := os.Stat(mf); err != nil {
			t.Fatal(err)
		}
		out := runTool(t, "./cmd/smsim", "-kernel", "pcr", "-machine", mf)
		if !strings.Contains(out, "partitioned rf=256K") {
			t.Errorf("machine file not applied:\n%s", out)
		}
	})

	t.Run("paper-figure8", func(t *testing.T) {
		out := runTool(t, "./cmd/paper", "figure8")
		if !strings.Contains(out, "228K") { // dgemm's register file
			t.Errorf("figure8 output missing the dgemm allocation:\n%s", out)
		}
	})

	t.Run("paper-csv", func(t *testing.T) {
		out := runTool(t, "./cmd/paper", "-csv", "table4")
		if !strings.HasPrefix(out, "structure,") || !strings.Contains(out, "12.1") {
			t.Errorf("CSV output wrong:\n%s", out)
		}
	})

	t.Run("sweep", func(t *testing.T) {
		out := runTool(t, "./cmd/sweep", "-kernel", "nn", "-resource", "cache", "-from", "32", "-to", "64")
		if !strings.Contains(out, "32K") || !strings.Contains(out, "64K") {
			t.Errorf("sweep output missing points:\n%s", out)
		}
	})

	t.Run("trace-workflow", func(t *testing.T) {
		tf := filepath.Join(tmp, "vec.trc")
		out := runTool(t, "./cmd/tracegen", "-kernel", "vectoradd", "-o", tf)
		if !strings.Contains(out, "instructions") {
			t.Errorf("tracegen output: %s", out)
		}
		out = runTool(t, "./cmd/tracestat", tf)
		if !strings.Contains(out, "Instruction mix") || !strings.Contains(out, "LDG") {
			t.Errorf("tracestat output:\n%s", out)
		}
		out = runTool(t, "./cmd/smsim", "-trace", tf, "-resident", "4")
		if !strings.Contains(out, "replayed") {
			t.Errorf("replay output:\n%s", out)
		}
		// A replay runs the partitioned design: a flag it cannot apply
		// is a usage error naming the flag, not a report of a run that
		// did not happen.
		for _, tc := range []struct {
			args  []string
			names string
		}{
			{[]string{"-design", "unified"}, "-design unified"},
			{[]string{"-design", "fermi", "-total", "256"}, "-design fermi, -total"},
			{[]string{"-machine", filepath.Join(tmp, "absent.json")}, "-machine"},
		} {
			cmd := exec.Command("go", append([]string{"run", "./cmd/smsim", "-trace", tf}, tc.args...)...)
			out, err := cmd.CombinedOutput()
			if err == nil || !strings.Contains(string(out), "exit status 2") ||
				!strings.Contains(string(out), "smsim: "+tc.names+" cannot be applied") || strings.Contains(string(out), "replayed") {
				t.Errorf("smsim -trace %s: err %v, output:\n%s", strings.Join(tc.args, " "), err, out)
			}
		}
	})

	t.Run("chipsim", func(t *testing.T) {
		out := runTool(t, "./cmd/chipsim", "-kernel", "vectoradd", "-sms", "2")
		if !strings.Contains(out, "single-SM model") || !strings.Contains(out, "sm1") {
			t.Errorf("chipsim output:\n%s", out)
		}
	})
}
