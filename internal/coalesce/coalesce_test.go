package coalesce_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/coalesce"
	"repro/internal/interp"
	"repro/internal/ir"
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

func countCopies(f *ir.Func) int {
	n := 0
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpCopy {
			n++
		}
	})
	return n
}

func TestCoalescesChain(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    add r1, r2 => r3
    copy r3 => r4
    copy r4 => r5
    add r5, r2 => r6
    ret r6
}
`
	f := ir.MustParseFunc(src)
	want := run(t, f, 10)
	st := coalesce.Run(f, analysis.NewCache(f))
	got := run(t, f, 10)
	if got.I != want.I || got.I != 12 {
		t.Fatalf("got %d, want 12", got.I)
	}
	if st.Coalesced != 2 {
		t.Errorf("coalesced %d, want 2\n%s", st.Coalesced, f)
	}
	if countCopies(f) != 0 {
		t.Errorf("copies remain\n%s", f)
	}
}

// TestKeepsInterferingCopy: v = old value of x, x changes, both used —
// the copy must survive.
func TestKeepsInterferingCopy(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    copy r1 => r2
    loadI 1 => r3
    add r1, r3 => r1
    mul r1, r2 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want := run(t, f, 6) // (6+1)*6 = 42
	coalesce.Run(f, analysis.NewCache(f))
	got := run(t, f, 6)
	if got.I != want.I || got.I != 42 {
		t.Fatalf("got %d, want 42", got.I)
	}
	if countCopies(f) != 1 {
		t.Errorf("interfering copy removed\n%s", f)
	}
}

// TestLoopCarriedCopies: the classic post-SSA shape — the φ-copies in
// a loop latch coalesce away when they do not interfere.
func TestLoopCarriedCopies(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    jump -> b1
b1:
    loadI 1 => r3
    add r2, r3 => r4
    copy r4 => r2
    cmpLT r2, r1 => r5
    cbr r5 -> b1, b2
b2:
    ret r2
}
`
	f := ir.MustParseFunc(src)
	want := run(t, f, 5)
	st := coalesce.Run(f, analysis.NewCache(f))
	got := run(t, f, 5)
	if got.I != want.I || got.I != 5 {
		t.Fatalf("got %d, want %d", got.I, want.I)
	}
	if st.Coalesced != 1 {
		t.Errorf("loop copy not coalesced: %+v\n%s", st, f)
	}
}

// TestSwapCopiesSurvive: a cyclic swap through a temp must not be
// mangled (all three copies interfere pairwise except via the temp).
func TestSwapCopiesSurvive(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    jump -> b1
b1:
    copy r1 => r5
    copy r2 => r1
    copy r5 => r2
    loadI 1 => r6
    add r4, r6 => r4
    cmpLT r4, r3 => r7
    cbr r7 -> b1, b2
b2:
    loadI 100 => r8
    mul r1, r8 => r9
    add r9, r2 => r10
    ret r10
}
`
	ref := func(a, b, n int64) int64 {
		iters := n
		if iters < 1 {
			iters = 1 // the CFG is do-while: the body runs at least once
		}
		for i := int64(0); i < iters; i++ {
			a, b = b, a
		}
		return a*100 + b
	}
	for _, n := range []int64{0, 1, 2, 5} {
		f := ir.MustParseFunc(src)
		coalesce.Run(f, analysis.NewCache(f))
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
		got := run(t, f, 1, 2, n)
		if got.I != ref(1, 2, n) {
			t.Errorf("swap(%d): got %d, want %d\n%s", n, got.I, ref(1, 2, n), f)
		}
	}
}

func TestSelfCopyRemoved(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    copy r1 => r1
    ret r1
}
`
	f := ir.MustParseFunc(src)
	coalesce.Run(f, analysis.NewCache(f))
	if countCopies(f) != 0 {
		t.Errorf("self copy remains\n%s", f)
	}
}
