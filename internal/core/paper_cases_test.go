package core_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minift"
	"repro/internal/pre"
)

// runPass applies one pass to one function with a fresh analysis cache.
func runPass(p core.Pass, f *ir.Func) {
	p.Run(&core.PassContext{Ctx: context.Background(), Func: f, Analyses: analysis.NewCache(f)})
}

// runPasses applies a pass list to a copy of prog through the pipeline
// driver, which verifies every function a pass changes.
func runPasses(t *testing.T, prog *ir.Program, names ...string) *ir.Program {
	t.Helper()
	passes, err := core.Passes(names...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.RunPasses(prog, passes, core.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExpressionNameLiveAcrossBlock reproduces §5.1: an expression
// name (here the sqrt result r10) live across a basic-block boundary.
// "PRE will sometimes hoist an expression past a use of its name" in
// the classic formulation; our pipeline (normalize before PRE) must
// keep the program correct, with r20 receiving the OLD sqrt value even
// though r9 is redefined before a later recomputation point.
func TestExpressionNameLiveAcrossBlock(t *testing.T) {
	const src = `
func f(r1, r9) {
b0:
    enter(r1, r9)
    sqrt r9 => r10
    cbr r1 -> b1, b2
b1:
    loadF 1000.0 => r9
    sqrt r9 => r10
    jump -> b2
b2:
    copy r10 => r20
    ret r20
}
`
	f := ir.MustParseFunc(src)
	runIt := func(g *ir.Func, take int64) float64 {
		m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{g.Clone()}})
		v, err := m.Call("f", interp.IntVal(take), interp.FloatVal(16.0))
		if err != nil {
			t.Fatalf("%v\n%s", err, g)
		}
		return v.F
	}
	// Reference: through b1 → sqrt(1000); skipping b1 → sqrt(16)=4.
	if got := runIt(f, 0); got != 4.0 {
		t.Fatalf("premise: f(0)=%g, want 4", got)
	}
	for _, passes := range [][]string{
		{"normalize", "pre"},
		{"gvn", "normalize", "pre", "sccp", "peephole", "dce", "coalesce", "emptyblocks"},
	} {
		g := runPasses(t, &ir.Program{Funcs: []*ir.Func{f}}, passes...).Funcs[0]
		if got := runIt(g, 0); got != 4.0 {
			t.Errorf("passes %v broke the §5.1 case: f(0)=%g, want 4\n%s", passes, got, g)
		}
		if got := runIt(g, 1); got != runIt(f, 1) {
			t.Errorf("passes %v broke the b1 path", passes)
		}
	}
}

// TestUndefinedEntryUseEveryConfig: a verified function whose entry
// block reads a never-defined register optimizes at every level under
// every GVN×PRE backend pair, and the undefined read still yields 0.
func TestUndefinedEntryUseEveryConfig(t *testing.T) {
	p, err := ir.ParseProgramString(`
func main(r1) {
b0:
    enter(r1)
    add r1, r2 => r3
    ret r3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range append([]core.Level{core.LevelNone}, core.Levels...) {
		for _, g := range core.GVNBackends {
			for _, pb := range core.PREBackends {
				out, err := core.OptimizeWith(p, level, core.OptimizeOptions{GVN: g, PRE: pb})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", level, g, pb, err)
				}
				v, err := interp.NewMachine(out).Call("main", interp.IntVal(5))
				if err != nil || v.I != 5 {
					t.Errorf("%s/%s/%s: main(5) = %v, %v; want 5\n%s", level, g, pb, v.I, err, out)
				}
			}
		}
	}
}

// TestSparseLabelsEveryPREBackend: a parsed function whose labels are
// not dense (b0, b1, b3) optimizes at partial under every PRE backend.
// PRE inserts on the critical edge b0→b3, and the block that splits it
// must not take an existing label: the fresh-label counter starts at
// the block count, which names b3 again.
func TestSparseLabelsEveryPREBackend(t *testing.T) {
	p, err := ir.ParseProgramString(`
func main(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b3
b1:
    add r1, r2 => r3
    jump -> b3
b3:
    add r1, r2 => r4
    ret r4
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range core.PREBackends {
		out, err := core.OptimizeWith(p, core.LevelPartial, core.OptimizeOptions{PRE: pb})
		if err != nil {
			t.Fatalf("%s: %v", pb, err)
		}
		if err := ir.VerifyProgram(out); err != nil {
			t.Fatalf("%s: %v\n%s", pb, err, out)
		}
		for _, take := range []int64{0, 1} {
			v, err := interp.NewMachine(out).Call("main", interp.IntVal(take), interp.IntVal(5))
			if err != nil || v.I != take+5 {
				t.Errorf("%s: main(%d, 5) = %v, %v; want %d\n%s", pb, take, v.I, err, take+5, out)
			}
		}
	}
}

// TestNormalizeEnforcesRule checks that after Normalize, no
// expression-name register is live across a block boundary.
func TestNormalizeEnforcesRule(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    cbr r1 -> b1, b2
b1:
    mul r3, r3 => r4
    jump -> b3
b2:
    copy r3 => r4
    jump -> b3
b3:
    add r4, r3 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	want := func(g *ir.Func, a int64) int64 {
		m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{g.Clone()}})
		v, err := m.Call("f", interp.IntVal(a), interp.IntVal(3))
		if err != nil {
			t.Fatalf("%v\n%s", err, g)
		}
		return v.I
	}
	w0, w1 := want(f, 0), want(f, 1)
	st := core.Normalize(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if st.CopiesInserted == 0 {
		t.Errorf("nothing normalized: %+v", st)
	}
	if want(f, 0) != w0 || want(f, 1) != w1 {
		t.Error("Normalize changed semantics")
	}
	// The §5.1 rule: expression names (non-copy computation targets)
	// must not be live across block boundaries: live into no block,
	// and no φ operand (a φ operand crosses its edge).
	lv := analysis.NewCache(f).Liveness()
	live := dataflow.NewBitSet(f.NumRegs())
	for _, b := range f.Blocks {
		live.Union(lv.LiveIn.Row(b.ID))
		for _, pid := range b.Phis() {
			for _, a := range f.Instr(pid).Args {
				live.Set(int(a))
			}
		}
	}
	exprDst := map[ir.Reg]bool{}
	varDst := map[ir.Reg]bool{}
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		switch in.Op {
		case ir.OpCopy, ir.OpCall:
			varDst[in.Dst] = true
		case ir.OpEnter:
			for _, p := range in.Args {
				varDst[p] = true
			}
		default:
			if in.Dst != ir.NoReg {
				exprDst[in.Dst] = true
			}
		}
	})
	for r := range exprDst {
		if !varDst[r] && live.Has(int(r)) {
			t.Errorf("expression name %s live across a block boundary\n%s", r, f)
		}
	}
}

// TestReassocCanHideCSE documents the paper's §4.2 reassociation loss:
// the final arrangement of the running example recomputes r0+r1 in two
// differently-sorted contexts ("this sort of problem occurred quite
// often"), and the effect "is usually dominated by the improved motion
// of loop invariants".  We assert the overall pipeline still wins on
// the running example even though the preheader computes y+z twice in
// different groupings.
func TestReassocCanHideCSE(t *testing.T) {
	const src = `
func foo(y: int, z: int): int {
    var s: int = 0
    var x: int = y + z
    for i = x to 100 {
        s = 1 + s + x
    }
    return s
}
`
	prog, err := minift.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[core.Level]int64{}
	for _, level := range core.Levels {
		opt, err := core.Optimize(prog, level)
		if err != nil {
			t.Fatal(err)
		}
		m := interp.NewMachine(opt)
		if _, err := m.Call("foo", interp.IntVal(1), interp.IntVal(2)); err != nil {
			t.Fatal(err)
		}
		counts[level] = m.Steps
	}
	if counts[core.LevelReassoc] >= counts[core.LevelPartial] {
		t.Errorf("reassociation should still win overall: %v", counts)
	}
}

// TestMulShiftOrdering is §5.2 as a test: converting ×2 to a shift
// before reassociation must cost dynamic operations relative to
// converting after.
func TestMulShiftOrdering(t *testing.T) {
	const src = `
func driver(x: int, y: int, n: int): int {
    var s: int = 0
    for z = 1 to n {
        s = s + x * z * 2 * y
    }
    return s
}
`
	prog, err := minift.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(passes []string) int64 {
		t.Helper()
		m := interp.NewMachine(runPasses(t, prog, passes...))
		v, err := m.Call("driver", interp.IntVal(3), interp.IntVal(7), interp.IntVal(50))
		if err != nil {
			t.Fatal(err)
		}
		if v.I != 3*2*7*50*51/2 {
			t.Fatalf("wrong result %d", v.I)
		}
		return m.Steps
	}
	after := measure([]string{"reassoc", "gvn", "normalize", "pre", "sccp", "peephole-shift", "dce", "coalesce", "emptyblocks", "dce"})
	before := measure([]string{"peephole-shift", "reassoc", "gvn", "normalize", "pre", "sccp", "peephole-shift", "dce", "coalesce", "emptyblocks", "dce"})
	if before <= after {
		t.Errorf("premature mul→shift should cost ops: before=%d after=%d", before, after)
	}
	t.Logf("§5.2: shift-before=%d, shift-after=%d (%.0f%% worse)",
		before, after, 100*float64(before-after)/float64(after))
}

// TestRunningExampleFigures walks the paper's Figures 3→10 pipeline
// asserting the headline structural facts at each stage.
func TestRunningExampleFigures(t *testing.T) {
	const src = `
func foo(y: int, z: int): int {
    var s: int = 0
    var x: int = y + z
    for i = x to 100 {
        s = 1 + s + x
    }
    return s
}
`
	prog, err := minift.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[0]

	apply := func(names ...string) {
		t.Helper()
		prog = runPasses(t, prog, names...)
		f = prog.Funcs[0]
	}
	countOp := func(op ir.Op) int {
		n := 0
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if in.Op == op {
				n++
			}
		})
		return n
	}

	// Figures 4–7: reassociation (SSA+ranks+propagation+sorting).
	apply("reassoc")
	if countOp(ir.OpPhi) != 0 {
		t.Error("Figure 5: φ-nodes must be gone (copies inserted)")
	}

	// Figure 8: value numbering — renaming only, counts unchanged.
	before := f.InstrCount()
	apply("gvn")
	if c := f.InstrCount(); c != before {
		t.Errorf("Figure 8: GVN must not add or delete instructions (%d -> %d)", before, c)
	}
	// After renaming, lexically identical expressions share keys:
	// the two computations of 1+y (or its sorted form) collide.
	keys := map[dataflow.ExprKey]int{}
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if k, ok := dataflow.KeyOf(in); ok {
			keys[k]++
		}
	})
	dup := false
	for _, n := range keys {
		if n > 1 {
			dup = true
		}
	}
	if !dup {
		t.Errorf("Figure 8: no lexically identical expressions after GVN\n%s", f)
	}

	// Figure 9: PRE removes them and hoists the invariants.
	st := pre.RunToFixpoint(context.Background(), f, analysis.NewCache(f), pre.Drechsler)
	if st.Deleted+st.Replaced+st.Rewritten == 0 {
		t.Errorf("Figure 9: PRE found nothing: %+v\n%s", st, f)
	}

	// Figure 10: cleanup; the loop body ends at 4 operations
	// (s-add, i-add, compare, branch).
	apply("sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce")
	m := interp.NewMachine(prog)
	if _, err := m.Call("foo", interp.IntVal(1), interp.IntVal(2)); err != nil {
		t.Fatal(err)
	}
	// 98 iterations; entry+preheader+exit is a small constant.
	perIter := (m.Steps - 12) / 98
	if perIter > 4 {
		t.Errorf("Figure 10: loop body has %d ops/iteration, want ≤4\n%s", perIter, f)
	}
}
