package isa

import (
	"math/bits"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpNop: "NOP", OpALU: "ALU", OpSFU: "SFU", OpLDG: "LDG", OpSTG: "STG",
		OpLDS: "LDS", OpSTS: "STS", OpTEX: "TEX", OpBAR: "BAR", OpEXIT: "EXIT",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "Op(200)" {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestOpPredicates(t *testing.T) {
	tests := []struct {
		op                        Op
		mem, global, shared, long bool
	}{
		{OpNop, false, false, false, false},
		{OpALU, false, false, false, false},
		{OpSFU, false, false, false, false},
		{OpLDG, true, true, false, true},
		{OpSTG, true, true, false, false},
		{OpLDS, true, false, true, false},
		{OpSTS, true, false, true, false},
		{OpTEX, true, true, false, true},
		{OpBAR, false, false, false, false},
		{OpEXIT, false, false, false, false},
	}
	for _, tc := range tests {
		if got := tc.op.IsMemory(); got != tc.mem {
			t.Errorf("%v.IsMemory() = %v, want %v", tc.op, got, tc.mem)
		}
		if got := tc.op.IsGlobal(); got != tc.global {
			t.Errorf("%v.IsGlobal() = %v, want %v", tc.op, got, tc.global)
		}
		if got := tc.op.IsShared(); got != tc.shared {
			t.Errorf("%v.IsShared() = %v, want %v", tc.op, got, tc.shared)
		}
		if got := tc.op.IsLongLatency(); got != tc.long {
			t.Errorf("%v.IsLongLatency() = %v, want %v", tc.op, got, tc.long)
		}
	}
}

func TestOperandValid(t *testing.T) {
	if (Operand{Reg: NoReg, Space: SpaceMRF}).Valid() {
		t.Error("NoReg operand should be invalid")
	}
	if (Operand{Reg: 3, Space: SpaceNone}).Valid() {
		t.Error("SpaceNone operand should be invalid")
	}
	if !(Operand{Reg: 3, Space: SpaceLRF}).Valid() {
		t.Error("r3@LRF should be valid")
	}
}

func TestOperandString(t *testing.T) {
	o := Operand{Reg: 7, Space: SpaceORF}
	if got := o.String(); got != "r7@ORF" {
		t.Errorf("String() = %q", got)
	}
	var empty Operand
	if got := empty.String(); got != "-" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestActiveThreadsMatchesBits(t *testing.T) {
	f := func(mask uint32) bool {
		wi := WarpInst{Mask: mask}
		return wi.ActiveThreads() == bits.OnesCount32(mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWarpInstString(t *testing.T) {
	wi := WarpInst{
		Op:          OpALU,
		Dst:         Operand{Reg: 1, Space: SpaceLRF},
		DstMRFWrite: true,
	}
	for i := range wi.Srcs {
		wi.Srcs[i].Reg = NoReg
	}
	wi.Srcs[0] = Operand{Reg: 2, Space: SpaceMRF}
	got := wi.String()
	want := "ALU r1@LRF+MRF r2@MRF"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRegSpaceString(t *testing.T) {
	if SpaceMRF.String() != "MRF" || SpaceORF.String() != "ORF" || SpaceLRF.String() != "LRF" {
		t.Error("space names wrong")
	}
}

// TestWarpInstSize pins the instruction record at 24 bytes: the trace
// cache holds one per dynamic warp instruction, so a field order that
// reintroduces padding grows every memoized trace by a third.
func TestWarpInstSize(t *testing.T) {
	if got := unsafe.Sizeof(WarpInst{}); got != 24 {
		t.Errorf("unsafe.Sizeof(WarpInst{}) = %d, want 24", got)
	}
}
