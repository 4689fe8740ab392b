package plan

import (
	"testing"

	"repro/api"
)

// TestPinnedKeys pins literal cache keys. Persisted stores are addressed
// by these hashes, so any change to canonicalization — field order, a
// clamp, a default — orphans every stored result and must show up here.
func TestPinnedKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  api.RunRequest
		want string
	}{
		{"plain", api.RunRequest{Kernel: "needle"},
			"e388234b026d7cf38248cca729b6b442ae8c87b7fd417a2c806ebfb3f07e0ca9"},
		{"two streams", api.RunRequest{Streams: []api.StreamRequest{{Kernel: "needle"}, {Kernel: "matrixmul"}}},
			"011b748a1425458302faf7e2dca565efe4049f13e85446c2996ce282194d21ad"},
		{"alloc_total_kb", api.RunRequest{Kernel: "dgemm", AllocTotalKB: 384},
			"4966db59add6ff8a0793a08db64befbda895dfc86984b284991098d03b0c38b7"},
	} {
		r, err := Resolve(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Key != tc.want {
			t.Errorf("%s: key = %s, want %s", tc.name, r.Key, tc.want)
		}
	}

	br := api.BatchRequest{Runs: []api.RunRequest{{Kernel: "bfs"}}, WarmCycles: 20000}
	br.Runs[0].Machine.Timing.MaxMSHRs = 4
	rs, err := ResolveBatch(br)
	if err != nil {
		t.Fatal(err)
	}
	if want := "dfe693b7cfd9aa29c3474452021dcb8fef61d79afc076cb610192e4e2dcafe7c"; rs[0].Key != want {
		t.Errorf("warm batch item: key = %s, want %s", rs[0].Key, want)
	}
}

// TestRunnerKeyOfResolve: a resolved run's runner key is RunnerKey of
// its timing and energy parameters, whatever its capacities, so runs
// that differ only in configuration share one Runner, and spellings of
// the same scheduler share one too.
func TestRunnerKeyOfResolve(t *testing.T) {
	plain := api.RunRequest{Kernel: "needle"}
	sized := api.RunRequest{Kernel: "bfs", AllocTotalKB: 384}
	sized.Machine.Design, sized.Machine.MaxThreads = "unified", 1024
	fermi := api.RunRequest{Kernel: "dgemm", FermiTotalKB: 384}
	twolevel := plain
	twolevel.Machine.Timing.Scheduler = "twolevel"
	gto := plain
	gto.Machine.Timing.Scheduler = "gto"
	keys := make(map[string]string)
	for name, req := range map[string]api.RunRequest{"plain": plain, "sized": sized, "fermi": fermi, "twolevel": twolevel, "gto": gto} {
		r, err := Resolve(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := r.RunnerKey(), RunnerKey(r.Params, r.Energy); got != want {
			t.Errorf("%s: runner key %s, want %s", name, got, want)
		}
		keys[name] = r.RunnerKey()
	}
	for _, name := range []string{"sized", "fermi", "twolevel"} {
		if keys[name] != keys["plain"] {
			t.Errorf("%s: runner key %s differs from the plain run's %s", name, keys[name], keys["plain"])
		}
	}
	if keys["gto"] == keys["plain"] {
		t.Error("a gto run shares the twolevel runner key")
	}
}
