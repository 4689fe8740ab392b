package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestWriteBytesPinned pins the .trc format: kgen-built traces, as
// `tracegen -kernel needle` and `tracegen -kernel bfs -regs 12` record
// them (seed 1), serialize to fixed bytes, whichever form the code
// packs its address vectors in. Reading those bytes back must give each
// warp the resident shape of the kgen build: the same program records
// and indexes, and an operand table with the same arena, slot for slot,
// and the same references (reflect.DeepEqual compares the unexported
// fields).
func TestWriteBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		regs   int
		sha256 string
	}{
		{"needle", 0, "88833272e148315771b3a35ab2b0f012bad7bad904a2b67d233cb00b668eae90"},
		{"bfs", 12, "93232c067bd199fdc3365a7c5fca76405eafe7540f9202d9983f94e50adebb8e"},
	} {
		k, err := workloads.ByName(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		built := trace.Record(&workloads.Source{K: k, RegsAvail: tc.regs, Seed: 1})
		var buf bytes.Buffer
		if err := trace.Write(&buf, built); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("%s -regs %d: SHA-256 %x, want %s", tc.kernel, tc.regs, sum, tc.sha256)
		}
		read, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for w := range built.Warps {
			if !reflect.DeepEqual(read.Warps[w], built.Warps[w]) {
				t.Fatalf("%s -regs %d: warp %d reads back in another shape than kgen built", tc.kernel, tc.regs, w)
			}
		}
	}
}
