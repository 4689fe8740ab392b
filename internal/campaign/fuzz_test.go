package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCampaign parses arbitrary bytes as a campaign document, which
// must never panic. A document that validates compiles one cell per
// (machine, workload) pair, and its spec marshals back to a document
// that compiles the same cells. The corpus seeds are the committed
// example campaigns.
func FuzzCampaign(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		if want := len(c.Spec.Machines) * len(c.Workloads); len(c.Runs) != want {
			t.Fatalf("compiled %d cells, want %d machines x %d workloads",
				len(c.Runs), len(c.Spec.Machines), len(c.Workloads))
		}
		spec, err := json.Marshal(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(spec)
		if err != nil {
			t.Fatalf("re-parsing the marshalled spec: %v\n%s", err, spec)
		}
		if !reflect.DeepEqual(c.Runs, again.Runs) {
			t.Fatalf("re-parsed spec compiles different cells:\n%+v\n%+v", c.Runs, again.Runs)
		}
	})
}
