package gvn_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/gvn"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pre"
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

// TestSection22NamingExample is the paper's §2.2 example:
//
//	x = y + z      r1 ← ry + rz ; rx ← r1
//	a = y          ra ← ry
//	b = a + z      r2 ← ra + rz ; rb ← r2
//
// "Obviously, r1 and r2 receive the same value ... PRE cannot discover
// this fact even though value numbering can."  After GVN renaming the
// two adds must be lexically identical, and PRE removes the second.
func TestSection22NamingExample(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    copy r3 => r4
    copy r1 => r5
    add r5, r2 => r6
    copy r6 => r7
    add r4, r7 => r8
    ret r8
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 3, 4)

	// Without GVN, the two adds are lexically different.
	u := dataflow.BuildUniverse(f, nil)
	k1, _ := dataflow.KeyOf(f.Entry().Instr(1)) // add r1, r2
	k2, _ := dataflow.KeyOf(f.Entry().Instr(4)) // add r5, r2
	if k1 == k2 {
		t.Fatal("test premise broken: keys already equal")
	}
	_ = u

	gvn.Run(f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, f, 3, 4)
	if got.I != want.I {
		t.Fatalf("GVN changed semantics: %d vs %d", got.I, want.I)
	}
	// The congruent adds must now share one lexical key (same target
	// name and operands).
	var addKeys []dataflow.ExprKey
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpAdd {
			if k, ok := dataflow.KeyOf(in); ok {
				addKeys = append(addKeys, k)
			}
		}
	})
	equalPair := false
	for i := 0; i < len(addKeys); i++ {
		for j := i + 1; j < len(addKeys); j++ {
			if addKeys[i] == addKeys[j] {
				equalPair = true
			}
		}
	}
	if !equalPair {
		t.Errorf("GVN did not unify the congruent adds\n%s", f)
	}

	// And PRE can now delete the duplicate.
	before := f.InstrCount()
	pre.RunToFixpoint(context.Background(), f, analysis.NewCache(f), pre.Drechsler)
	if f.InstrCount() >= before {
		t.Errorf("PRE removed nothing after GVN: %d -> %d\n%s", before, f.InstrCount(), f)
	}
	got2, _ := run(t, f, 3, 4)
	if got2.I != want.I {
		t.Errorf("GVN+PRE changed semantics")
	}
}

// TestLoopCongruence: two separately named induction variables with
// identical updates are congruent — the optimistic analysis proves it
// through the loop, which pessimistic (hash-based) value numbering
// cannot.
func TestLoopCongruence(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 0 => r3
    loadI 0 => r4
    jump -> b1
b1:
    loadI 1 => r5
    add r2, r5 => r2
    loadI 1 => r6
    add r3, r6 => r3
    add r4, r2 => r4
    add r4, r3 => r4
    cmpLT r2, r1 => r7
    cbr r7 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 10)
	st := gvn.Run(f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, f, 10)
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
	// The two induction variables collapse into one congruence class:
	// fewer classes than values.
	if st.Classes >= st.Values {
		t.Errorf("no congruence discovered: %d classes for %d values", st.Classes, st.Values)
	}
	// After renaming, the adds updating the two counters are lexically
	// identical; φ-dedup should have removed one φ.
	if st.PhiDups == 0 {
		t.Errorf("congruent φs not deduplicated: %+v\n%s", st, f)
	}
}

// TestGVNPreservesDistinctValues: values that merely look similar must
// not be merged.
func TestGVNPreservesDistinctValues(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    sub r1, r2 => r4
    mul r3, r4 => r5
    loadI 3 => r6
    loadI 4 => r7
    add r6, r7 => r8
    add r5, r8 => r9
    ret r9
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 9, 2)
	gvn.Run(f, analysis.NewCache(f))
	got, _ := run(t, f, 9, 2)
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d (want (9+2)*(9-2)+7=84)", got.I, want.I)
	}
}

// TestGVNConstantsByValue: loadI of equal constants are congruent,
// different constants are not.
func TestGVNConstantsByValue(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 5 => r2
    loadI 5 => r3
    loadI 6 => r4
    add r2, r3 => r5
    add r5, r4 => r6
    ret r6
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 0)
	st := gvn.Run(f, analysis.NewCache(f))
	got, _ := run(t, f, 0)
	if got.I != want.I || got.I != 16 {
		t.Fatalf("got %d, want 16", got.I)
	}
	if st.Classes >= st.Values {
		t.Errorf("equal constants not merged: %+v", st)
	}
}

// TestGVNCallsOpaque: two calls to the same function with the same
// arguments must NOT be considered congruent (calls have effects).
func TestGVNCallsOpaque(t *testing.T) {
	const src = `
program globalsize=16

func g() {
b0:
    enter()
    loadI 0 => r1
    ldw [r1] => r2
    loadI 1 => r3
    add r2, r3 => r4
    stw r4 => [r1]
    ret r4
}

func f() {
b0:
    enter()
    call g() => r1
    call g() => r2
    add r1, r2 => r3
    ret r3
}
`
	prog, err := ir.ParseProgramString(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	gvn.Run(f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(prog)
	v, err := m.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 3 { // 1 + 2
		t.Errorf("call results wrongly merged: got %d, want 3", v.I)
	}
}
