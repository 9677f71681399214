package pre

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/coalesce"
	"repro/internal/dce"
	"repro/internal/gvn"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestSection2IfExample reproduces the paper's first §2 figure: x+y
// computed in the then-arm and again after the join.  PRE must insert
// on the else path and delete the join computation, so the then path
// gets shorter and the else path stays the same length.
func TestSection2IfExample(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r3
    jump -> b3
b2:
    loadI 7 => r4
    jump -> b3
b3:
    add r1, r2 => r3
    ret r3
}
`
	f := ir.MustParseFunc(src)
	wantThen, thenBefore := run(t, f, "f", 1, 2)
	wantElse, elseBefore := run(t, f, "f", 0, 2)

	st := once(f, Drechsler)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	gotThen, thenAfter := run(t, f, "f", 1, 2)
	gotElse, elseAfter := run(t, f, "f", 0, 2)
	if gotThen != wantThen || gotElse != wantElse {
		t.Fatalf("semantics changed: (%d,%d) vs (%d,%d)", gotThen, gotElse, wantThen, wantElse)
	}
	if thenAfter >= thenBefore {
		t.Errorf("then path should shorten: %d -> %d\n%s", thenBefore, thenAfter, f)
	}
	if elseAfter > elseBefore {
		t.Errorf("else path lengthened: %d -> %d\n%s", elseBefore, elseAfter, f)
	}
	if st.Inserted == 0 || st.Deleted+st.Replaced+st.Rewritten == 0 {
		t.Errorf("stats show no motion: %+v", st)
	}
}

// TestSection2LoopInvariant reproduces the paper's second §2 figure:
// x+y inside a loop, available along the back edge but not from the
// preheader.  PRE must hoist it.
func TestSection2LoopInvariant(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    add r1, r2 => r6
    add r4, r6 => r4
    loadI 1 => r7
    add r5, r7 => r5
    cmpLT r5, r3 => r8
    cbr r8 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, before := run(t, f, "f", 3, 4, 10)
	fixpoint(f, Drechsler)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, after := run(t, f, "f", 3, 4, 10)
	if got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	if after >= before {
		t.Errorf("loop invariant not hoisted: %d -> %d ops\n%s", before, after, f)
	}
	// The add must now execute once, not ten times: at least 9 ops saved.
	if before-after < 9 {
		t.Errorf("expected ≥9 ops saved, got %d\n%s", before-after, f)
	}
}

// TestChainedHoisting checks the Figure 9 effect: a two-level
// invariant chain (r0+1 then (r0+1)+r1) fully hoists via iteration.
func TestChainedHoisting(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    loadI 1 => r6
    add r1, r6 => r7
    add r7, r2 => r8
    add r4, r8 => r4
    loadI 1 => r9
    add r5, r9 => r5
    cmpLT r5, r3 => r10
    cbr r10 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, "f", 3, 4, 10)
	// GVN first, as the paper's pipeline does: the naming discipline is
	// what lets iterated PRE hoist the chain without compensation
	// copies pinning it.
	gvn.Run(f, analysis.NewCache(f))
	st := fixpoint(f, Drechsler)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, f, "f", 3, 4, 10)
	if got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	t.Logf("rounds: %d", st.Rounds)
	// Count remaining adds in loop blocks (blocks inside natural loops).
	adds := loopOpCount(f, ir.OpAdd)
	// Only the two accumulator updates (r4 and r5) may remain.
	if adds > 2 {
		t.Errorf("loop still has %d adds, want ≤2\n%s", adds, f)
	}
}

// TestChainRoundsSolveWhatChanged pins the incremental rounds on the
// Figure 9 chain: round 1 solves every expression and hoists the
// invariant r1+r2 (Figure 9's r6 ← r0+1); round 2 solves only its
// parent r6+r3, the one expression reading the register round 1
// redefined, and hoists it.  Round 3 solves the accumulation that reads
// the parent, plus r1+r2 again: with its only use moved beside it, r6
// is once more its canonical destination (Mode A).  It finds nothing,
// and the run stops.
func TestChainRoundsSolveWhatChanged(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    loadI 1 => r9
    jump -> b1
b1:
    add r1, r2 => r6
    add r6, r3 => r7
    add r4, r7 => r4
    add r5, r9 => r5
    cmpLT r5, r3 => r10
    cbr r10 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, "f", 3, 4, 10)
	p := &driver{f: f, ac: analysis.NewCache(f), s: Drechsler}
	defer p.release()

	st, ok := p.round()
	if !ok || st.Solved != st.Exprs || st.Inserted != 1 {
		t.Fatalf("round 1 must solve all %d expressions and hoist r1+r2: %+v\n%s", st.Exprs, st, f)
	}
	st, ok = p.round()
	if !ok || st.Solved != 1 || st.Inserted != 1 || st.Deleted != 1 {
		t.Fatalf("round 2 must solve and hoist only the parent r6+r3: %+v\n%s", st, f)
	}
	st, ok = p.round()
	if !ok || st.Solved != 2 || st.Changed() {
		t.Fatalf("round 3 must solve the accumulation and r1+r2 and find nothing: %+v\n%s", st, f)
	}
	if got, _ := run(t, f, "f", 3, 4, 10); got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	if adds := loopOpCount(f, ir.OpAdd); adds != 2 {
		t.Errorf("loop keeps %d adds, want the 2 variant ones\n%s", adds, f)
	}

	// The driver reports the same rounds, summed.
	g := ir.MustParseFunc(src)
	total := fixpoint(g, Drechsler)
	if total.Rounds != 3 || total.Solved != total.Exprs+3 {
		t.Errorf("fixpoint: %+v, want 3 rounds solving %d+1+2", total, total.Exprs)
	}
	if g.String() != f.String() {
		t.Errorf("round-by-round and fixpoint runs differ:\n%s\nvs\n%s", g, f)
	}
}

// TestNamingFlipResolves: an expression whose operands no round
// redefines is still solved again when its canonical destination
// becomes eligible.  r1+r2 is computed twice into r4, but r4 is read in
// the loop, so r1+r2 starts under Mode B, where the local repeat stays.
// Round 1 hoists the loop's r4+r3 into b0; r4's only use is then local,
// r1+r2 turns Mode A, and round 2 must delete the repeat, as a full
// re-solve would.
func TestNamingFlipResolves(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    add r1, r2 => r4
    add r1, r2 => r4
    loadI 0 => r5
    jump -> b1
b1:
    add r4, r3 => r6
    add r5, r6 => r5
    cmpLT r5, r3 => r7
    cbr r7 -> b1, b2
b2:
    ret r5
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, "f", 3, 4, 100)
	st := fixpoint(f, Drechsler)
	if got, _ := run(t, f, "f", 3, 4, 100); got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	n := 0
	for _, id := range f.Entry().Instrs {
		if in := f.Instr(id); in.Op == ir.OpAdd && in.Args[0] == 1 && in.Args[1] == 2 {
			n++
		}
	}
	if n != 1 || st.Deleted != 2 {
		t.Errorf("b0 keeps %d computations of r1+r2, want 1: %+v\n%s", n, st, f)
	}
}

// loopOpCount counts occurrences of op inside natural loops.
func loopOpCount(f *ir.Func, op ir.Op) int {
	li := analysis.NewCache(f).Loops()
	n := 0
	for _, b := range f.Blocks {
		if li.Depth(b) == 0 {
			continue
		}
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// TestNeverLengthensPath is the paper's key safety property: for every
// input (hence every path), PRE must not increase the dynamic count.
func TestNeverLengthensPath(t *testing.T) {
	cases := []string{
		// Diamond with partially redundant expr.
		`
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r3
    mul r3, r3 => r4
    jump -> b3
b2:
    loadI 1 => r4
    jump -> b3
b3:
    add r1, r2 => r5
    add r4, r5 => r6
    ret r6
}
`,
		// Expression used only on one side (must NOT be hoisted into
		// the other path).
		`
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    mul r2, r2 => r3
    ret r3
b2:
    loadI 0 => r4
    ret r4
}
`,
	}
	// PRE's guarantee concerns *computations*: the compensation copies
	// of Mode B are bookkeeping that coalescing removes (the paper
	// relies on the same cleanup, §3.2).  Measure with the cleanup.
	for ci, src := range cases {
		for _, arg := range []int64{0, 1} {
			f := ir.MustParseFunc(src)
			want, before := run(t, f, "f", arg, 5)
			fixpoint(f, Drechsler)
			dce.Run(f, analysis.NewCache(f))
			coalesce.Run(f, analysis.NewCache(f))
			cfg.RemoveEmptyBlocks(f)
			got, after := run(t, f, "f", arg, 5)
			if got != want {
				t.Errorf("case %d arg %d: semantics changed", ci, arg)
			}
			if after > before {
				t.Errorf("case %d arg %d: path lengthened %d -> %d\n%s", ci, arg, before, after, f)
			}
		}
	}
}

// TestLoadsNotHoistedPastStores: a load inside a loop that contains a
// store to an unknown address must stay put.
func TestLoadsNotHoistedPastStores(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    ldw [r1] => r6
    add r4, r6 => r4
    stw r4 => [r2]
    loadI 1 => r7
    add r5, r7 => r5
    cmpLT r5, r3 => r8
    cbr r8 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	fixpoint(f, Drechsler)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	// The ldw must still be inside the loop, since the stw kills it.
	if loopOpCount(f, ir.OpLoadW) == 0 {
		t.Errorf("load was moved out of the loop despite the store\n%s", f)
	}
	// Semantics: aliased addresses r1 == r2.
	prog := &ir.Program{Funcs: []*ir.Func{f.Clone()}, GlobalSize: 64}
	m := interp.NewMachine(prog)
	m.WriteInt64(8, 5)
	v, err := m.Call("f", interp.IntVal(8), interp.IntVal(8), interp.IntVal(4))
	if err != nil {
		t.Fatal(err)
	}
	// s starts 0; iteration i: s += mem[8]; mem[8] = s.
	// i1: s=5, mem=5; i2: s=10, mem=10; i3: s=20; i4: s=40.
	if v.I != 40 {
		t.Errorf("aliasing semantics broken: got %d, want 40", v.I)
	}
}

// TestLoadHoistedWhenSafe: with no stores in the loop, a loop-invariant
// load hoists like any expression (redundant load elimination).
func TestLoadHoistedWhenSafe(t *testing.T) {
	const src = `
func f(r1, r3) {
b0:
    enter(r1, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    ldw [r1] => r6
    add r4, r6 => r4
    loadI 1 => r7
    add r5, r7 => r5
    cmpLT r5, r3 => r8
    cbr r8 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	prog := &ir.Program{Funcs: []*ir.Func{f.Clone()}, GlobalSize: 64}
	m := interp.NewMachine(prog)
	m.WriteInt64(8, 7)
	v, _ := m.Call("f", interp.IntVal(8), interp.IntVal(5))
	before := m.Steps

	fixpoint(f, Drechsler)
	prog2 := &ir.Program{Funcs: []*ir.Func{f.Clone()}, GlobalSize: 64}
	m2 := interp.NewMachine(prog2)
	m2.WriteInt64(8, 7)
	v2, err := m2.Call("f", interp.IntVal(8), interp.IntVal(5))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != v2.I {
		t.Fatalf("semantics changed: %d vs %d", v.I, v2.I)
	}
	if m2.Steps >= before {
		t.Errorf("invariant load not hoisted: %d -> %d\n%s", before, m2.Steps, f)
	}
}

// TestFullyRedundantSameBlock: PRE's Mode A scan removes block-local
// recomputation under the naming discipline.
func TestFullyRedundantSameBlock(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    mul r3, r3 => r4
    add r1, r2 => r3
    add r4, r3 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, "f", 3, 4)
	once(f, Drechsler)
	got, _ := run(t, f, "f", 3, 4)
	if got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	adds := 0
	for _, id := range f.Entry().Instrs {
		if f.Instr(id).Op == ir.OpAdd {
			adds++
		}
	}
	if adds != 2 { // r1+r2 once, r4+r3 once
		t.Errorf("local redundancy not removed: %d adds\n%s", adds, f)
	}
}
