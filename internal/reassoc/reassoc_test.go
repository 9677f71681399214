package reassoc_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/reassoc"
	"repro/internal/sccp"
	"repro/internal/ssa"
)

func runF(t *testing.T, f *ir.Func, args ...interp.Value) (interp.Value, int64) {
	t.Helper()
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
	v, err := m.Call(f.Name, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	return v, m.Steps
}

// TestFigure1ConstantShape reproduces Figure 1's middle-shape claim:
// for rx=3, rz=2 and rv a variable, "only the middle shape will allow
// constant propagation to transform the expression into y + 5".  After
// reassociation the constants sort together regardless of the original
// association, and SCCP folds them.
func TestFigure1ConstantShape(t *testing.T) {
	// Left shape: (3 + v) + 2 — constants apart.
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 3 => r2
    add r2, r1 => r3
    loadI 2 => r4
    add r3, r4 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	want, _ := runF(t, f, interp.IntVal(10))

	// Without reassociation SCCP cannot fold 3+2.
	g := f.Clone()
	sccp.Run(context.Background(), g, analysis.NewCache(g))
	addsBefore := countOps(g, ir.OpAdd)
	if addsBefore != 2 {
		t.Fatalf("premise: SCCP alone should keep 2 adds, has %d", addsBefore)
	}

	reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
	sccp.Run(context.Background(), f, analysis.NewCache(f))
	got, _ := runF(t, f, interp.IntVal(10))
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
	// After sorting, 3 and 2 are adjacent; SCCP folds their sum, so at
	// most one add feeding the return remains.
	if n := countOps(f, ir.OpAdd); n > 1 {
		t.Errorf("constants not grouped for folding: %d adds\n%s", n, f)
	}
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

// TestFigure1InvariantShape: "if rv and rz are both loop invariant,
// only the rightmost shape will allow PRE to hoist the loop-invariant
// subexpression."  Reassociation must sort the invariant operands
// together so the partial sum is invariant.
func TestFigure1InvariantShape(t *testing.T) {
	// s += (x + i) + y with x,y invariant: naive left shape pins x+i.
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    add r1, r5 => r6
    add r6, r2 => r7
    add r4, r7 => r4
    loadI 1 => r8
    add r5, r8 => r5
    cmpLT r5, r3 => r9
    cbr r9 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, _ := runF(t, f, interp.IntVal(3), interp.IntVal(4), interp.IntVal(10))
	reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, _ := runF(t, f, interp.IntVal(3), interp.IntVal(4), interp.IntVal(10))
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
	// The i-dependent operand must now combine LAST: the loop body
	// should contain an add of the form (invariant-sum, i-term); after
	// reassociation the tree for s's increment is (x+y)+i in some
	// association where x+y forms its own instruction.  Check there is
	// an add whose operands are both parameters (or renames thereof):
	// structural proxy — the invariant pair appears as one instruction
	// whose operands are defined outside the loop.
	li := analysis.NewCache(f).Loops()
	defsOutside := map[ir.Reg]bool{}
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if li.Depth(b) == 0 {
			if in.Op == ir.OpEnter {
				for _, p := range in.Args {
					defsOutside[p] = true
				}
			}
			if in.Dst != ir.NoReg {
				defsOutside[in.Dst] = true
			}
		}
	})
	foundInvariantAdd := false
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpAdd && li.Depth(b) > 0 &&
			defsOutside[in.Args[0]] && defsOutside[in.Args[1]] {
			// an invariant+invariant add inside the loop would be
			// hoistable by PRE; reassociation either placed it or the
			// sum was grouped — accept both shapes below.
			foundInvariantAdd = true
		}
	})
	// Accept either outcome: the invariant pair grouped inside the
	// loop (hoistable by PRE) or already emitted outside.  What must
	// NOT remain is the original (x+i)+y association where no two
	// invariants meet: i.e. every loop add mixes i into both operands.
	if !foundInvariantAdd {
		// Check an invariant add exists outside the loop instead.
		outside := false
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if in.Op == ir.OpAdd && li.Depth(b) == 0 {
				outside = true
			}
		})
		if !outside {
			t.Errorf("no invariant grouping found\n%s", f)
		}
	}
}

// TestRanksFigure4 recomputes the rank assignment of the paper's
// Figure 4: constants rank 0, entry values rank 1, loop-varying values
// rank 2, post-loop rank 3.
func TestRanksFigure4(t *testing.T) {
	const src = `
func foo(r1, r2) {
b0:
    enter(r1, r2)
    loadI 0 => r3
    add r1, r2 => r4
    cmpGT r4, r3 => r5
    cbr r5 -> b2, b1
b1:
    loadI 1 => r6
    add r3, r6 => r3
    cmpLE r3, r4 => r7
    cbr r7 -> b1, b2
b2:
    add r3, r4 => r8
    ret r8
}
`
	f := ir.MustParseFunc(src)
	// Ranks are computed on SSA; build it the way the pass does.
	// (Use the exported pieces: Run does this internally; here we call
	// ComputeRanks after an SSA build to inspect the values.)
	// We only check relative properties, which survive renaming.
	fc := f.Clone()
	// Recreate pass-internal state:
	ranksOf := func() map[string][]int {
		// classify rank values by defining op kind
		out := map[string][]int{}
		ssa.Build(fc, ssa.BuildOptions{Prune: true, FoldCopies: true}, analysis.NewCache(fc))
		rk := reassoc.ComputeRanks(fc, analysis.NewCache(fc))
		fc.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			switch {
			case in.Op == ir.OpLoadI:
				out["const"] = append(out["const"], rk.Of(in.Dst))
			case in.Op == ir.OpEnter:
				for _, p := range in.Args {
					out["param"] = append(out["param"], rk.Of(p))
				}
			case in.Op == ir.OpPhi:
				out["phi"] = append(out["phi"], rk.Of(in.Dst))
			}
		})
		return out
	}
	got := ranksOf()
	for _, r := range got["const"] {
		if r != 0 {
			t.Errorf("constant rank %d, want 0", r)
		}
	}
	for _, r := range got["param"] {
		if r != 1 {
			t.Errorf("parameter rank %d, want 1 (entry block)", r)
		}
	}
	for _, r := range got["phi"] {
		if r < 2 {
			t.Errorf("φ rank %d, want ≥2 (loop or join block)", r)
		}
	}
}

// TestSubRewriting: x − y participates in sums as x + (−y), and the
// peephole pass can rebuild the subtraction later.
func TestSubRewriting(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    sub r1, r2 => r4
    add r4, r3 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	want, _ := runF(t, f, interp.IntVal(10), interp.IntVal(3), interp.IntVal(5))
	reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
	got, _ := runF(t, f, interp.IntVal(10), interp.IntVal(3), interp.IntVal(5))
	if got.I != want.I || got.I != 12 {
		t.Fatalf("got %d, want 12", got.I)
	}
	// The sub is gone (rewritten additively)...
	if countOps(f, ir.OpSub) != 0 {
		t.Errorf("sub not rewritten\n%s", f)
	}
	if countOps(f, ir.OpNeg) == 0 {
		t.Errorf("no negation introduced\n%s", f)
	}
}

// TestForwardPropIntoLoopDegradation reproduces §4.2's third loss: a
// computation n ← j + k used only after the loop gets propagated INTO
// the loop (to its φ-input/essential site), lengthening iterations;
// the paper accepts this as a known cost.  We verify semantics hold
// and document the count change.
func TestForwardPropIntoLoopDegradation(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    add r1, r2 => r4
    loadI 0 => r5
    jump -> b1
b1:
    loadI 1 => r6
    add r5, r6 => r5
    cmpEQ r5, r3 => r7
    cbr r7 -> b2, b3
b2:
    add r5, r4 => r5
    jump -> b3
b3:
    loadI 100 => r8
    cmpLT r5, r8 => r9
    cbr r9 -> b1, b4
b4:
    ret r5
}
`
	f := ir.MustParseFunc(src)
	want, before := runF(t, f, interp.IntVal(30), interp.IntVal(40), interp.IntVal(5))
	st := reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, after := runF(t, f, interp.IntVal(30), interp.IntVal(40), interp.IntVal(5))
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
	t.Logf("dynamic ops %d -> %d (expansion %.3f); degradation is expected here (§4.2)",
		before, after, st.Expansion())
}

// TestTable2Expansion: forward propagation grows static code within
// the paper's observed band on a representative function.
func TestTable2Expansion(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    add r1, r2 => r6
    mul r6, r3 => r7
    add r4, r7 => r4
    loadI 1 => r8
    add r5, r8 => r5
    cmpLT r5, r3 => r9
    cbr r9 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	st := reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
	if st.BeforeProp == 0 || st.AfterProp == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
	if e := st.Expansion(); e < 0.8 || e > 3.0 {
		t.Errorf("expansion %.3f outside plausible band", e)
	}
}

// TestMultiUseSharingPreserved: the MaxDupSize bound keeps
// exponentiation-by-squaring DAGs intact.
func TestMultiUseSharingPreserved(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    mul r1, r1 => r2
    mul r2, r2 => r3
    mul r3, r3 => r4
    mul r4, r4 => r5
    mul r5, r4 => r6
    ret r6
}
`
	f := ir.MustParseFunc(src)
	want, _ := runF(t, f, interp.IntVal(2))
	reassoc.Run(f, reassoc.Options{AllowFloat: true}, analysis.NewCache(f))
	got, _ := runF(t, f, interp.IntVal(2))
	if got.I != want.I || got.I != 1<<24 {
		t.Fatalf("got %d, want 2^24", got.I)
	}
	// Full duplication would need 23 multiplies; the default bound
	// keeps growth modest (small shared squarings may still inline).
	if n := countOps(f, ir.OpMul); n > 12 {
		t.Errorf("sharing destroyed: %d muls (had 5, full duplication = 23)\n%s", n, f)
	}
	// With MaxDupSize=1 no multi-use value duplicates at all.
	g := ir.MustParseFunc(src)
	reassoc.Run(g, reassoc.Options{AllowFloat: true, MaxDupSize: 1}, analysis.NewCache(g))
	got2, _ := runF(t, g, interp.IntVal(2))
	if got2.I != want.I {
		t.Fatalf("MaxDupSize=1 changed semantics")
	}
	if n := countOps(g, ir.OpMul); n != 5 {
		t.Errorf("MaxDupSize=1: %d muls, want exactly 5\n%s", n, g)
	}
}

// TestFloatReassocSwitch: AllowFloat=false must keep float operations
// in their original association (bit-exact results).
func TestFloatReassocSwitch(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    fadd r1, r2 => r4
    fadd r4, r3 => r5
    ret r5
}
`
	args := []interp.Value{
		interp.FloatVal(1e16), interp.FloatVal(1.0), interp.FloatVal(-1e16),
	}
	f := ir.MustParseFunc(src)
	want, _ := runF(t, f, args...)
	reassoc.Run(f, reassoc.Options{AllowFloat: false}, analysis.NewCache(f))
	got, _ := runF(t, f, args...)
	if got.F != want.F {
		t.Errorf("AllowFloat=false changed the result: %g vs %g", got.F, want.F)
	}
}
