package machine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDescribe decodes arbitrary JSON over Default() and, when the
// result resolves, requires Describe to invert Resolve: the description
// of the resolved parameters resolves to the same parameters, describes
// to itself, and shares the original's canonical key. The corpus seeds
// are the default machine and every machine document of the committed
// campaigns.
func FuzzDescribe(f *testing.F) {
	def, err := json.Marshal(Default())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	// Inputs that once broke the inverse: a unit conversion that does
	// not round-trip, and a row size that wrapped in uint32.
	f.Add([]byte(`{"energy":{"sram_leakage_mw_per_kb":41.04553438976858}}`))
	f.Add([]byte(`{"timing":{"dram_row_bytes":4294967296,"dram_row_miss_cycles":7}}`))
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var c struct {
			Machines []struct {
				Machine json.RawMessage `json:"machine"`
			} `json:"machines"`
		}
		if err := json.Unmarshal(data, &c); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, m := range c.Machines {
			if len(m.Machine) > 0 {
				f.Add([]byte(m.Machine))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := Default()
		if json.Unmarshal(data, &d) != nil {
			return
		}
		cfg, p, e, err := d.Resolve()
		if err != nil {
			return
		}
		desc := Describe(cfg, p, e)
		cfg2, p2, e2, err := desc.Resolve()
		if err != nil {
			t.Fatalf("Describe(%+v) does not resolve: %v", d, err)
		}
		if cfg2 != cfg || p2 != p || e2 != e {
			t.Fatalf("Describe does not invert Resolve:\nresolved   %+v %+v %+v\nredescribed %+v %+v %+v", cfg, p, e, cfg2, p2, e2)
		}
		if again := Describe(cfg2, p2, e2); !reflect.DeepEqual(again, desc) {
			t.Fatalf("Describe is not a fixed point:\n%+v\n%+v", desc, again)
		}
		k1, err1 := Key(d)
		k2, err2 := Key(desc)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("keys differ: %q (%v) vs %q (%v)", k1, err1, k2, err2)
		}
	})
}
