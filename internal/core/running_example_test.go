package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
)

// figure3 is the paper's running example (Figure 2/3): the FORTRAN
// routine foo(y,z) { s=0; x=y+z; DO i=x,100 { s=1+s+x }; return s }
// translated naively to ILOC, *not* conforming to the naming
// discipline — exactly the translation the paper starts from.
const figure3 = `
func foo(r1, r2) {
b0:
    enter(r1, r2)
    loadI 0 => r3
    add r1, r2 => r4
    copy r4 => r5
    loadI 100 => r6
    cmpGT r5, r6 => r7
    cbr r7 -> b3, b1
b1:
    loadI 1 => r8
    add r8, r3 => r9
    add r9, r4 => r10
    copy r10 => r3
    loadI 1 => r11
    add r5, r11 => r12
    copy r12 => r5
    loadI 100 => r13
    cmpLE r5, r13 => r14
    cbr r14 -> b1, b2
b2:
    jump -> b3
b3:
    ret r3
}
`

// fooReference computes what foo must return.
func fooReference(y, z int64) int64 {
	s := int64(0)
	x := y + z
	for i := x; i <= 100; i++ {
		s = 1 + s + x
	}
	return s
}

func runFoo(t *testing.T, f *ir.Func, y, z int64) (int64, int64) {
	t.Helper()
	prog := &ir.Program{Funcs: []*ir.Func{f}}
	m := interp.NewMachine(prog)
	v, err := m.Call("foo", interp.IntVal(y), interp.IntVal(z))
	if err != nil {
		t.Fatalf("interp: %v\n%s", err, f)
	}
	if v.Float {
		t.Fatalf("foo returned a float")
	}
	return v.I, m.Steps
}

// optimizeFigure3 optimizes the Figure 3 function at a level.
func optimizeFigure3(t *testing.T, level core.Level) *ir.Func {
	t.Helper()
	out, err := core.Optimize(&ir.Program{Funcs: []*ir.Func{ir.MustParseFunc(figure3)}}, level)
	if err != nil {
		t.Fatalf("%s: %v", level, err)
	}
	return out.Funcs[0]
}

// TestRunningExampleSemantics checks that every optimization level
// preserves the running example's semantics over a grid of inputs.
func TestRunningExampleSemantics(t *testing.T) {
	inputs := [][2]int64{{1, 2}, {0, 0}, {50, 50}, {100, 1}, {-10, 5}, {99, 1}, {101, 0}, {-200, 100}}
	for _, level := range append([]core.Level{core.LevelNone}, core.Levels...) {
		f := optimizeFigure3(t, level)
		if err := ir.Verify(f); err != nil {
			t.Fatalf("%s: verify: %v", level, err)
		}
		for _, in := range inputs {
			got, _ := runFoo(t, f, in[0], in[1])
			want := fooReference(in[0], in[1])
			if got != want {
				t.Errorf("%s: foo(%d,%d) = %d, want %d\n%s", level, in[0], in[1], got, want, f)
			}
		}
	}
}

// TestRunningExampleImproves checks the paper's qualitative claims on
// the running example: PRE improves on the baseline, and
// reassociation+GVN improve on PRE alone ("the sequence of
// transformations reduced the length of the loop by 1 operation
// without increasing the length of any path", §3.2).
func TestRunningExampleImproves(t *testing.T) {
	counts := map[core.Level]int64{}
	for _, level := range core.Levels {
		f := optimizeFigure3(t, level)
		_, steps := runFoo(t, f, 1, 2) // x=3: 98 iterations
		counts[level] = steps
	}
	t.Logf("dynamic counts: %+v", counts)
	if counts[core.LevelPartial] > counts[core.LevelBaseline] {
		t.Errorf("partial (%d) should not exceed baseline (%d)",
			counts[core.LevelPartial], counts[core.LevelBaseline])
	}
	if counts[core.LevelReassoc] > counts[core.LevelPartial] {
		t.Errorf("reassociation (%d) should not exceed partial (%d)",
			counts[core.LevelReassoc], counts[core.LevelPartial])
	}
	if counts[core.LevelPartial] >= counts[core.LevelBaseline] {
		t.Errorf("PRE found nothing: partial %d vs baseline %d",
			counts[core.LevelPartial], counts[core.LevelBaseline])
	}
}
