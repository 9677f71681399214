package strength_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/strength"
)

func run(t *testing.T, f *ir.Func, args ...int64) (interp.Value, int64) {
	t.Helper()
	vals := make([]interp.Value, len(args))
	for i, a := range args {
		vals[i] = interp.IntVal(a)
	}
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
	v, err := m.Call(f.Name, vals...)
	if err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	return v, m.Steps
}

// loopMulCount counts multiplications inside natural loops.
func loopMulCount(f *ir.Func) int {
	li := analysis.NewCache(f).Loops()
	n := 0
	for _, b := range f.Blocks {
		if li.Depth(b) == 0 {
			continue
		}
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpMul {
				n++
			}
		}
	}
	return n
}

// TestReducesIVMultiply: s += i*3 becomes an additive recurrence.
func TestReducesIVMultiply(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 0 => r3
    loadI 3 => r4
    jump -> b1
b1:
    mul r2, r4 => r5
    add r3, r5 => r3
    loadI 1 => r6
    add r2, r6 => r2
    cmpLT r2, r1 => r7
    cbr r7 -> b1, b2
b2:
    ret r3
}
`
	f := ir.MustParseFunc(src)
	ref, _ := run(t, f, 10)
	st := strength.Run(f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, f, 10)
	if got.I != ref.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, ref.I)
	}
	if st.BasicIVs < 1 || st.Reduced != 1 {
		t.Errorf("stats: %+v\n%s", st, f)
	}
	if n := loopMulCount(f); n != 0 {
		t.Errorf("%d multiplications remain in the loop\n%s", n, f)
	}
}

// TestMultipleDerivedIVs: two multiplications by different constants
// both reduce.
func TestMultipleDerivedIVs(t *testing.T) {
	const src = `
func f(r1, r8, r9) {
b0:
    enter(r1, r8, r9)
    loadI 0 => r2
    loadI 0 => r3
    jump -> b1
b1:
    mul r2, r8 => r5
    mul r2, r9 => r10
    add r5, r10 => r11
    add r3, r11 => r3
    loadI 1 => r6
    add r2, r6 => r2
    cmpLT r2, r1 => r7
    cbr r7 -> b1, b2
b2:
    ret r3
}
`
	f := ir.MustParseFunc(src)
	ref, _ := run(t, f, 8, 3, 5)
	st := strength.Run(f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, f, 8, 3, 5)
	if got.I != ref.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, ref.I)
	}
	if st.Reduced != 2 {
		t.Errorf("Reduced = %d, want 2\n%s", st.Reduced, f)
	}
	if n := loopMulCount(f); n != 0 {
		t.Errorf("%d multiplications remain\n%s", n, f)
	}
}

// TestLeavesVariantMultiplier: i*x with x modified in the loop must
// not reduce.
func TestLeavesVariantMultiplier(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 0 => r3
    loadI 1 => r4
    jump -> b1
b1:
    mul r2, r4 => r5
    add r3, r5 => r3
    add r4, r4 => r4
    loadI 1 => r6
    add r2, r6 => r2
    cmpLT r2, r1 => r7
    cbr r7 -> b1, b2
b2:
    ret r3
}
`
	f := ir.MustParseFunc(src)
	ref, _ := run(t, f, 6)
	st := strength.Run(f, analysis.NewCache(f))
	got, _ := run(t, f, 6)
	if got.I != ref.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, ref.I)
	}
	if st.Reduced != 0 {
		t.Errorf("reduced a loop-variant multiplier: %+v\n%s", st, f)
	}
}

// TestNegativeAndLargeSteps: step other than 1.
func TestNegativeAndLargeSteps(t *testing.T) {
	const src = `
func f(r1, r9) {
b0:
    enter(r1, r9)
    loadI 0 => r2
    loadI 0 => r3
    loadI 4 => r8
    jump -> b1
b1:
    mul r2, r9 => r5
    add r3, r5 => r3
    add r2, r8 => r2
    cmpLT r2, r1 => r7
    cbr r7 -> b1, b2
b2:
    ret r3
}
`
	f := ir.MustParseFunc(src)
	ref, _ := run(t, f, 20, 7)
	st := strength.Run(f, analysis.NewCache(f))
	got, _ := run(t, f, 20, 7)
	if got.I != ref.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, ref.I)
	}
	if st.Reduced != 1 {
		t.Errorf("step-4 IV not reduced: %+v\n%s", st, f)
	}
}
