package peephole_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/peephole"
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

func TestIdentities(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    add r1, r2 => r3
    loadI 1 => r4
    mul r3, r4 => r5
    sub r5, r2 => r6
    div r6, r4 => r7
    xor r7, r7 => r8
    add r7, r8 => r9
    ret r9
}
`
	f := ir.MustParseFunc(src)
	want := run(t, f, 37)
	st := peephole.Run(f, peephole.Options{})
	got := run(t, f, 37)
	if got.I != want.I || got.I != 37 {
		t.Fatalf("got %d, want 37", got.I)
	}
	if st.Identities < 4 {
		t.Errorf("Identities = %d, want ≥4\n%s", st.Identities, f)
	}
	if countOps(f, ir.OpMul) != 0 || countOps(f, ir.OpDiv) != 0 {
		t.Errorf("x*1 or x/1 survived\n%s", f)
	}
	if countOps(f, ir.OpXor) != 0 {
		t.Errorf("x^x survived\n%s", f)
	}
}

func TestNegRebuild(t *testing.T) {
	// add(x, neg y) → sub(x, y): the reconstruction the paper's §3.1
	// promises after reassociation's additive rewriting.
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    neg r2 => r3
    add r1, r3 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	st := peephole.Run(f, peephole.Options{})
	if st.SubRebuilt != 1 {
		t.Errorf("SubRebuilt = %d, want 1\n%s", st.SubRebuilt, f)
	}
	if countOps(f, ir.OpSub) != 1 {
		t.Errorf("no sub reconstructed\n%s", f)
	}
	if got := run(t, f, 10, 3); got.I != 7 {
		t.Errorf("got %d, want 7", got.I)
	}
}

func TestDoubleNeg(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    neg r1 => r2
    neg r2 => r3
    ret r3
}
`
	f := ir.MustParseFunc(src)
	st := peephole.Run(f, peephole.Options{})
	if st.Identities != 1 {
		t.Errorf("neg(neg x) not simplified: %+v\n%s", st, f)
	}
	if got := run(t, f, 5); got.I != 5 {
		t.Errorf("got %d, want 5", got.I)
	}
}

func TestMulToShift(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 8 => r2
    mul r1, r2 => r3
    loadI 3 => r4
    mul r1, r4 => r5
    add r3, r5 => r6
    ret r6
}
`
	f := ir.MustParseFunc(src)
	st := peephole.Run(f, peephole.Options{MulToShift: true})
	if st.Shifts != 1 {
		t.Errorf("Shifts = %d, want 1 (only ×8 converts)\n%s", st.Shifts, f)
	}
	if countOps(f, ir.OpShl) != 1 || countOps(f, ir.OpMul) != 1 {
		t.Errorf("conversion wrong\n%s", f)
	}
	if got := run(t, f, 5); got.I != 55 {
		t.Errorf("got %d, want 55", got.I)
	}
	// Disabled by default.
	g := ir.MustParseFunc(src)
	st2 := peephole.Run(g, peephole.Options{})
	if st2.Shifts != 0 {
		t.Error("shift conversion ran without the option")
	}
}

func TestLocalConstFold(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 6 => r2
    loadI 7 => r3
    mul r2, r3 => r4
    add r4, r1 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	st := peephole.Run(f, peephole.Options{})
	if st.Folded != 1 {
		t.Errorf("Folded = %d, want 1\n%s", st.Folded, f)
	}
	if got := run(t, f, 0); got.I != 42 {
		t.Errorf("got %d, want 42", got.I)
	}
}

// TestInvalidationAcrossRedefinition: a constant record must die when
// its register is redefined.
func TestInvalidationAcrossRedefinition(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    copy r1 => r2
    loadI 0 => r3
    add r2, r3 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	peephole.Run(f, peephole.Options{})
	// add r2, 0 → copy r2 (identity), NOT loadI 1 (stale constant).
	if got := run(t, f, 99); got.I != 99 {
		t.Errorf("stale constant used: got %d, want 99\n%s", got.I, f)
	}
}

// TestConstantsDoNotCrossBlocks: the pass is block-local by design.
func TestConstantsDoNotCrossBlocks(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 3 => r2
    jump -> b1
b1:
    loadI 4 => r3
    add r2, r3 => r4
    ret r4
}
`
	f := ir.MustParseFunc(src)
	st := peephole.Run(f, peephole.Options{})
	if st.Folded != 0 {
		t.Errorf("folded across a block boundary: %+v", st)
	}
	if got := run(t, f, 0); got.I != 7 {
		t.Errorf("got %d, want 7", got.I)
	}
}

// runAllocs is testing.AllocsPerRun of peephole.Run on the one-block
// function src, restoring the block before every run so each run
// rewrites the same code.
func runAllocs(src string) float64 {
	f := ir.MustParseFunc(src)
	b := f.Blocks[0]
	ids := append([]ir.InstrID(nil), b.Instrs...)
	saved := make([]ir.Instr, len(ids))
	for i, id := range ids {
		saved[i] = *f.Instr(id)
	}
	return testing.AllocsPerRun(100, func() {
		b.Instrs = append(b.Instrs[:0], ids...)
		for i, id := range ids {
			*f.Instr(id) = saved[i]
		}
		peephole.Run(f, peephole.Options{})
	})
}

// TestFoldingAllocatesNothing: constant folding adds no allocation to
// a peephole run.  The same block runs with constant operands (three
// folds) and with unknown ones (no fold); the only allocation either
// makes is the block's rebuilt instruction list.
func TestFoldingAllocatesNothing(t *testing.T) {
	const body = `
    mul r2, r3 => r4
    add r4, r2 => r5
    sub r5, r3 => r6
    add r6, r1 => r7
    ret r7
}
`
	folding := runAllocs("func f(r1) {\nb0:\n    enter(r1)\n    loadI 6 => r2\n    loadI 7 => r3" + body)
	plain := runAllocs("func f(r1) {\nb0:\n    enter(r1)\n    copy r1 => r2\n    copy r1 => r3" + body)
	if folding != plain || plain > 1 {
		t.Errorf("peephole.Run allocates %v times per run on a folding block, %v without folds; want both ≤ 1 and equal", folding, plain)
	}
}
