package machine

import (
	"encoding/json"
	"testing"
)

// key unmarshals a JSON machine description and hashes it, failing the
// test on any error.
func key(t *testing.T, js string) string {
	t.Helper()
	var d Description
	if err := json.Unmarshal([]byte(js), &d); err != nil {
		t.Fatalf("unmarshal %q: %v", js, err)
	}
	k, err := Key(d)
	if err != nil {
		t.Fatalf("Key(%q): %v", js, err)
	}
	return k
}

// TestCanonicalKeyEquivalences pins the cache-key contract: spellings of
// the same machine share a key, and any simulated-parameter change
// breaks it.
func TestCanonicalKeyEquivalences(t *testing.T) {
	base := `{"design":"partitioned","rf_kb":256,"shared_kb":64,"cache_kb":64}`
	tests := []struct {
		name string
		a, b string
		same bool
	}{
		{
			name: "field order does not matter",
			a:    base,
			b:    `{"cache_kb":64,"shared_kb":64,"rf_kb":256,"design":"partitioned"}`,
			same: true,
		},
		{
			name: "empty design means partitioned",
			a:    base,
			b:    `{"design":"","rf_kb":256,"shared_kb":64,"cache_kb":64}`,
			same: true,
		},
		{
			name: "explicit defaults equal omitted defaults",
			a:    base,
			b: `{"design":"partitioned","rf_kb":256,"shared_kb":64,"cache_kb":64,
				"timing":{"alu_latency":8,"sfu_latency":20,"shared_latency":20,
				"cache_latency":20,"tex_latency":400,"scheduler":"twolevel"}}`,
			same: true,
		},
		{
			name: "omitted scheduler equals the default spelling",
			a:    base,
			b:    base[:len(base)-1] + `,"timing":{"scheduler":"twolevel"}}`,
			same: true,
		},
		{
			name: "fermi alias equals fermi-like",
			a:    `{"design":"fermi","rf_kb":256,"shared_kb":48,"cache_kb":16}`,
			b:    `{"design":"fermi-like","rf_kb":256,"shared_kb":48,"cache_kb":16}`,
			same: true,
		},
		{
			name: "zero max_threads equals omitted",
			a:    base,
			b:    base[:len(base)-1] + `,"max_threads":0}`,
			same: true,
		},
		{
			name: "distinct designs differ",
			a:    base,
			b:    `{"design":"unified","rf_kb":256,"shared_kb":64,"cache_kb":64}`,
			same: false,
		},
		{
			name: "scheduler policy differs",
			a:    base,
			b:    base[:len(base)-1] + `,"timing":{"scheduler":"gto"}}`,
			same: false,
		},
		{
			name: "capacity differs",
			a:    base,
			b:    `{"design":"partitioned","rf_kb":128,"shared_kb":64,"cache_kb":64}`,
			same: false,
		},
		{
			name: "thread cap differs",
			a:    base,
			b:    base[:len(base)-1] + `,"max_threads":512}`,
			same: false,
		},
		{
			name: "timing latency differs",
			a:    base,
			b:    base[:len(base)-1] + `,"timing":{"dram_latency":200}}`,
			same: false,
		},
		{
			name: "mshr bound differs",
			a:    base,
			b:    base[:len(base)-1] + `,"timing":{"max_mshrs":8}}`,
			same: false,
		},
		{
			name: "write policy differs",
			a:    base,
			b:    base[:len(base)-1] + `,"timing":{"write_back_cache":true}}`,
			same: false,
		},
		{
			name: "energy constant differs",
			a:    base,
			b:    base[:len(base)-1] + `,"energy":{"dram_pj_per_bit":21}}`,
			same: false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := key(t, tc.a), key(t, tc.b)
			if (ka == kb) != tc.same {
				t.Errorf("keys for\n  %s\n  %s\nsame=%v, want same=%v", tc.a, tc.b, ka == kb, tc.same)
			}
		})
	}
}

// TestCanonicalKeyDefaultMachine asserts the fully rendered default
// machine and the empty description agree — the "default filling" half
// of the contract — and that hashing is stable across calls.
func TestCanonicalKeyDefaultMachine(t *testing.T) {
	kd, err := Key(Default())
	if err != nil {
		t.Fatal(err)
	}
	ke := key(t, `{}`)
	if kd != ke {
		t.Errorf("Default() key %s != empty-description key %s", kd, ke)
	}
	again, err := Key(Default())
	if err != nil {
		t.Fatal(err)
	}
	if again != kd {
		t.Errorf("Key is not stable: %s then %s", kd, again)
	}
}

// TestCanonicalRejectsInvalid asserts canonicalization surfaces the same
// validation errors Resolve does rather than hashing garbage.
func TestCanonicalRejectsInvalid(t *testing.T) {
	for _, js := range []string{
		`{"design":"hexagonal"}`,
		`{"rf_kb":-1,"shared_kb":64,"cache_kb":64}`,
		`{"rf_kb":18014398509482240,"shared_kb":64,"cache_kb":64}`,
		`{"timing":{"dram_row_bytes":4294967296}}`,
		`{"timing":{"scheduler":"fifo"}}`,
	} {
		var d Description
		if err := json.Unmarshal([]byte(js), &d); err != nil {
			t.Fatalf("unmarshal %q: %v", js, err)
		}
		if _, err := Key(d); err == nil {
			t.Errorf("Key(%s) succeeded, want error", js)
		}
	}
}

// TestDescribeRoundTrip asserts Describe inverts Resolve on the default
// machine: describe(resolve(d)) == canonical(d).
func TestDescribeRoundTrip(t *testing.T) {
	d := Default()
	cfg, p, e, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	back := Describe(cfg, p, e)
	c1, err := d.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if back != c1 {
		t.Errorf("Describe(Resolve(Default())) = %+v, want %+v", back, c1)
	}
	// The canonical form is a fixed point.
	c2, err := c1.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("Canonical not idempotent:\n%+v\n%+v", c1, c2)
	}
}
