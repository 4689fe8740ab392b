package plan

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/machine"
)

// TestFlagsRequest pins how the shared smsim/smprof flags spell a
// request, and which spellings are rejected before anything simulates.
// wantErr is matched against Request's error or, when the flags map
// cleanly, against Resolve's.
func TestFlagsRequest(t *testing.T) {
	mf := filepath.Join(t.TempDir(), "machine.json")
	if err := machine.Save(mf, machine.Default()); err != nil {
		t.Fatal(err)
	}
	gto := machine.Default()
	gto.Timing.Scheduler = "gto"
	baseline := func(req api.RunRequest) api.RunRequest {
		req.Machine.RFKB, req.Machine.SharedKB, req.Machine.CacheKB = 256, 64, 64
		req.Machine.Timing.Scheduler = "twolevel"
		return req
	}
	for _, tc := range []struct {
		name    string
		args    []string
		want    api.RunRequest
		wantErr string
	}{
		{name: "kernel", args: []string{"-kernel", "needle", "-regs", "24"},
			want: baseline(api.RunRequest{Kernel: "needle", RegsPerThread: 24})},
		{name: "partitioned capacities", args: []string{"-kernel", "dgemm", "-rf", "128", "-shm", "32", "-cache", "16", "-threads", "512", "-sched", "gto"},
			want: func() api.RunRequest {
				req := api.RunRequest{Kernel: "dgemm"}
				req.Machine.RFKB, req.Machine.SharedKB, req.Machine.CacheKB, req.Machine.MaxThreads = 128, 32, 16, 512
				req.Machine.Timing.Scheduler = "gto"
				return req
			}()},
		{name: "streams unified", args: []string{"-streams", "needle+ matrixmul", "-design", "unified", "-regs", "24"},
			want: func() api.RunRequest {
				req := api.RunRequest{Streams: []api.StreamRequest{{Kernel: "needle"}, {Kernel: "matrixmul"}}, AllocTotalKB: 384}
				req.Machine.Timing.Scheduler = "twolevel"
				return req
			}()},
		{name: "fermi", args: []string{"-kernel", "bfs", "-design", "fermi", "-total", "512"},
			want: func() api.RunRequest {
				req := api.RunRequest{Kernel: "bfs", FermiTotalKB: 512}
				req.Machine.Timing.Scheduler = "twolevel"
				return req
			}()},
		{name: "machine file", args: []string{"-kernel", "pcr", "-machine", mf, "-rf", "8"},
			want: api.RunRequest{Kernel: "pcr", Machine: machine.Default()}},
		{name: "machine file with scheduler", args: []string{"-kernel", "pcr", "-machine", mf, "-sched", "gto"},
			want: api.RunRequest{Kernel: "pcr", Machine: gto}},

		{name: "unified zero total", args: []string{"-kernel", "needle", "-design", "unified", "-total", "0"},
			wantErr: "needs a positive -total"},
		{name: "unified negative total", args: []string{"-kernel", "needle", "-design", "unified", "-total", "-1"},
			wantErr: "needs a positive -total"},
		{name: "fermi zero total", args: []string{"-kernel", "needle", "-design", "fermi", "-total", "0"},
			wantErr: "needs a positive -total"},
		{name: "fermi below the register file", args: []string{"-kernel", "needle", "-design", "fermi", "-total", "128"},
			wantErr: "must exceed the fixed 256KB register file"},
		{name: "machine with unified", args: []string{"-kernel", "needle", "-machine", mf, "-design", "unified"},
			wantErr: "cannot be combined with -machine"},
		{name: "machine with fermi", args: []string{"-streams", "needle+bfs", "-machine", mf, "-design", "fermi"},
			wantErr: "cannot be combined with -machine"},
		{name: "kernel and streams", args: []string{"-kernel", "needle", "-streams", "bfs+nn"},
			wantErr: "mutually exclusive"},
		{name: "one stream", args: []string{"-streams", "needle"},
			wantErr: "at least two"},
		{name: "unknown stream", args: []string{"-streams", "needle+nosuch"},
			wantErr: "nosuch"},
		{name: "no kernel", args: []string{"-design", "unified"},
			wantErr: "-kernel is required"},
		{name: "unknown design", args: []string{"-kernel", "needle", "-design", "flat"},
			wantErr: "unknown design"},
		{name: "unknown scheduler", args: []string{"-kernel", "needle", "-sched", "lrr"},
			wantErr: "unknown policy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := AddFlags(fs)
			f.AddMachineFlag(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			req, err := f.Request()
			if err == nil && tc.wantErr != "" {
				_, err = Resolve(req)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(req, tc.want) {
				t.Errorf("request = %+v\nwant      %+v", req, tc.want)
			}
			if _, err := Resolve(req); err != nil {
				t.Errorf("Resolve: %v", err)
			}
		})
	}
}
