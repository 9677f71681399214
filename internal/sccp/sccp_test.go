package sccp_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sccp"
)

func run(t *testing.T, f *ir.Func, args ...int64) interp.Value {
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
	return v
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}

func TestFoldsConstantChain(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 3 => r2
    loadI 4 => r3
    add r2, r3 => r4
    mul r4, r4 => r5
    add r5, r1 => r6
    ret r6
}
`
	f := ir.MustParseFunc(src)
	want := run(t, f, 10)
	st := sccp.Run(context.Background(), f, analysis.NewCache(f))
	got := run(t, f, 10)
	if got.I != want.I || got.I != 59 {
		t.Fatalf("got %d, want 59", got.I)
	}
	if st.Folded < 2 {
		t.Errorf("folded %d, want ≥2 (7 and 49)", st.Folded)
	}
	// add r2,r3 and mul became loadI.
	if countOps(f, ir.OpMul) != 0 {
		t.Errorf("mul not folded\n%s", f)
	}
}

func TestConstantBranchEliminatesCode(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    cbr r2 -> b1, b2
b1:
    loadI 10 => r3
    jump -> b3
b2:
    loadI 20 => r3
    jump -> b3
b3:
    add r3, r1 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want := run(t, f, 5)
	st := sccp.Run(context.Background(), f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got := run(t, f, 5)
	if got.I != want.I || got.I != 15 {
		t.Fatalf("got %d, want 15", got.I)
	}
	if st.BranchesFixed != 1 {
		t.Errorf("BranchesFixed = %d, want 1", st.BranchesFixed)
	}
	if st.BlocksRemoved == 0 {
		t.Error("dead branch arm not removed")
	}
	if countOps(f, ir.OpCBr) != 0 {
		t.Errorf("cbr remains\n%s", f)
	}
}

// TestConditionalConstant: the classic SCCP case — a variable is the
// same constant on both arms of a diamond, so the join folds.
func TestConditionalConstant(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadI 7 => r3
    jump -> b3
b2:
    loadI 7 => r3
    jump -> b3
b3:
    loadI 1 => r4
    add r3, r4 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	sccp.Run(context.Background(), f, analysis.NewCache(f))
	for _, arg := range []int64{0, 1} {
		if got := run(t, f, arg); got.I != 8 {
			t.Fatalf("f(%d) = %d, want 8", arg, got.I)
		}
	}
	// add 7+1 folds because r3 is 7 on both paths.
	if countOps(f, ir.OpAdd) != 0 {
		t.Errorf("join constant not discovered\n%s", f)
	}
}

// TestCopiesNotRematerialized: SCCP must not rewrite copies of
// constants into loadI (that would undo PRE's constant hoisting).
func TestCopiesNotRematerialized(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 5 => r2
    copy r2 => r3
    add r3, r1 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	sccp.Run(context.Background(), f, analysis.NewCache(f))
	if countOps(f, ir.OpCopy) != 1 {
		t.Errorf("copy was rewritten\n%s", f)
	}
	if got := run(t, f, 3); got.I != 8 {
		t.Errorf("got %d, want 8", got.I)
	}
}

// TestDivByZeroNotFolded: folding 1/0 would turn a runtime trap into
// wrong code; SCCP must leave it.
func TestDivByZeroNotFolded(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    loadI 0 => r3
    div r2, r3 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	sccp.Run(context.Background(), f, analysis.NewCache(f))
	if countOps(f, ir.OpDiv) != 1 {
		t.Errorf("div by zero folded away\n%s", f)
	}
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f}})
	if _, err := m.Call("f", interp.IntVal(0)); err == nil {
		t.Error("expected division-by-zero trap")
	}
}

// TestUnreachableLoopRemoved: constant branch conditions make whole
// loops dead.
func TestUnreachableLoopRemoved(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    cbr r2 -> b1, b2
b1:
    loadI 1 => r3
    add r1, r3 => r1
    cmpLT r1, r3 => r4
    cbr r4 -> b1, b2
b2:
    ret r1
}
`
	f := ir.MustParseFunc(src)
	st := sccp.Run(context.Background(), f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if st.BlocksRemoved == 0 {
		t.Errorf("loop not removed\n%s", f)
	}
	if got := run(t, f, 42); got.I != 42 {
		t.Errorf("got %d, want 42", got.I)
	}
}

func TestFloatFolding(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadF 2.0 => r2
    loadF 8.0 => r3
    fmul r2, r3 => r4
    sqrt r4 => r5
    f2i r5 => r6
    ret r6
}
`
	f := ir.MustParseFunc(src)
	sccp.Run(context.Background(), f, analysis.NewCache(f))
	if got := run(t, f, 0); got.I != 4 {
		t.Fatalf("got %d, want 4", got.I)
	}
	if countOps(f, ir.OpSqrt) != 0 {
		t.Errorf("sqrt of constant not folded\n%s", f)
	}
}

// TestFoldAllocatesNothing: peephole and lvn call Fold once per
// instruction, so it must not allocate.
func TestFoldAllocatesNothing(t *testing.T) {
	ints := []int64{6, 7}
	floats := []float64{0, 0}
	isFloat := []bool{false, false}
	var got int64
	allocs := testing.AllocsPerRun(100, func() {
		got, _, _, _ = sccp.Fold(ir.OpMul, ints, floats, isFloat)
	})
	if got != 42 {
		t.Fatalf("Fold(mul 6, 7) = %d, want 42", got)
	}
	if allocs != 0 {
		t.Errorf("Fold allocated %v times per call, want 0", allocs)
	}
}

// TestRepeatedSuccessor: a cbr whose two targets coincide lists one
// successor twice, and the propagation must treat both entries as the
// one edge b0→b1.
func TestRepeatedSuccessor(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 4 => r2
    cbr r1 -> b1, b1
b1:
    add r2, r2 => r3
    add r3, r1 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	if n := len(f.Entry().Succs); n != 2 {
		t.Fatalf("entry lists %d successors, want b1 twice", n)
	}
	want := run(t, f, 5)
	st := sccp.Run(context.Background(), f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if got := run(t, f, 5); got.I != want.I || got.I != 13 {
		t.Fatalf("got %d, want 13", got.I)
	}
	if st.Folded != 1 {
		t.Errorf("Folded = %d, want 1 (4+4)\n%s", st.Folded, f)
	}
}

// TestSignedZerosDoNotMeet: +0.0 and −0.0 compare equal but are
// different constants (1/+0 is +Inf, 1/−0 is −Inf), so where the two
// meet the register is not a constant and the division must not fold.
func TestSignedZerosDoNotMeet(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r5
    cmpGT r1, r5 => r6
    cbr r6 -> b1, b2
b1:
    loadF 0.0 => r2
    jump -> b3
b2:
    loadF -0.0 => r2
    jump -> b3
b3:
    loadF 1.0 => r3
    fdiv r3, r2 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	sccp.Run(context.Background(), f, analysis.NewCache(f))
	for arg, want := range map[int64]float64{1: math.Inf(1), -1: math.Inf(-1)} {
		if got := run(t, f, arg); got.F != want {
			t.Errorf("f(%d) = %v, want %v\n%s", arg, got.F, want, f)
		}
	}
	if countOps(f, ir.OpFDiv) != 1 {
		t.Errorf("division by a signed zero folded\n%s", f)
	}
}

// TestEqualNaNsMeet: constants meet by bit pattern, so a NaN that
// reaches a join with the same bits on every path stays a constant
// (it is not ⊥ merely because NaN ≠ NaN), and its use folds.
func TestEqualNaNsMeet(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadF 0.0 => r7
    fdiv r7, r7 => r2
    jump -> b3
b2:
    loadF 0.0 => r8
    fdiv r8, r8 => r2
    jump -> b3
b3:
    loadF 1.0 => r3
    fadd r2, r3 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	sccp.Run(context.Background(), f, analysis.NewCache(f))
	if countOps(f, ir.OpFAdd) != 0 {
		t.Errorf("NaN + 1 at the join not folded\n%s", f)
	}
	if err := ir.Verify(ir.MustParseFunc(f.String())); err != nil {
		t.Fatalf("folded function does not round-trip: %v\n%s", err, f)
	}
	for _, arg := range []int64{0, 1} {
		if got := run(t, f, arg); !math.IsNaN(got.F) {
			t.Errorf("f(%d) = %v, want NaN", arg, got.F)
		}
	}
	// A NaN carried around a loop meets itself at the header on every
	// visit; the propagation must see no change and stop.
	const loop = `
func g(r1) {
b0:
    enter(r1)
    loadF 0.0 => r7
    fdiv r7, r7 => r2
    jump -> b1
b1:
    fadd r2, r2 => r3
    loadI 1 => r4
    sub r1, r4 => r1
    cbr r1 -> b1, b2
b2:
    ret r3
}
`
	g := ir.MustParseFunc(loop)
	if st := sccp.Run(context.Background(), g, analysis.NewCache(g)); st.Folded != 2 {
		t.Errorf("Folded = %d, want 2 (0/0 and NaN+NaN)\n%s", st.Folded, g)
	}
	if got := run(t, g, 3); !math.IsNaN(got.F) {
		t.Errorf("g(3) = %v, want NaN", got.F)
	}
}

// errAfter is a context that reports done from its n-th Err call on.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledContextRewritesNothing: SCCP checks its context before
// it starts and between sweeps, and a run that finds it done rewrites
// nothing, though the function holds foldable code.
func TestCancelledContextRewritesNothing(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 3 => r2
    loadI 4 => r3
    jump -> b1
b1:
    add r2, r3 => r4
    sub r1, r4 => r1
    cmpGT r1, r4 => r5
    cbr r5 -> b1, b2
b2:
    mul r4, r4 => r6
    ret r6
}
`
	p, err := core.PassByName("sccp")
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// The loop needs a second sweep, so the third Err call falls
	// between sweeps.
	for name, ctx := range map[string]context.Context{
		"before":  cancelled,
		"between": &errAfter{Context: context.Background(), n: 3},
	} {
		f := ir.MustParseFunc(src)
		gen := f.CodeGeneration()
		p.Run(&core.PassContext{Ctx: ctx, Func: f, Analyses: analysis.NewCache(f)})
		if f.CodeGeneration() != gen {
			t.Errorf("%s: cancelled context rewrote the function\n%s", name, f)
		}
		if st := sccp.Run(context.Background(), f, analysis.NewCache(f)); st.Folded != 2 {
			t.Errorf("%s: live context folded %d instructions, want 2 (3+4 and 7*7)\n%s", name, st.Folded, f)
		}
	}
}
