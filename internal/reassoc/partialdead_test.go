package reassoc_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pre"
	"repro/internal/reassoc"
)

// TestForwardPropEliminatesPartiallyDead verifies the paper's §3.1
// observation: "forward propagation eliminates partially-dead
// expressions ... By copying expressions to their use points, forward
// propagation trivially ensures that every expression is used on every
// path to an exit."
//
// Here t = x*y is computed before the branch but used only on the
// then-path: it is partially dead (dead along the else-path).  After
// reassociation the multiplication must execute only where its value
// is used.
func TestForwardPropEliminatesPartiallyDead(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    mul r1, r2 => r3
    cbr r1 -> b1, b2
b1:
    add r3, r2 => r4
    ret r4
b2:
    ret r2
}
`
	f := ir.MustParseFunc(src)
	run := func(g *ir.Func, a int64) (int64, int64) {
		m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{g.Clone()}})
		m.EnableOpCounts()
		v, err := m.Call("f", interp.IntVal(a), interp.IntVal(7))
		if err != nil {
			t.Fatalf("%v\n%s", err, g)
		}
		return v.I, m.OpCounts[ir.OpMul]
	}
	wantThen, mulsThen := run(f, 3)
	wantElse, mulsElse := run(f, 0)
	if mulsThen != 1 || mulsElse != 1 {
		t.Fatalf("premise: the mul executes on both paths (%d, %d)", mulsThen, mulsElse)
	}

	reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	gotThen, mT := run(f, 3)
	gotElse, mE := run(f, 0)
	if gotThen != wantThen || gotElse != wantElse {
		t.Fatalf("semantics changed: (%d,%d) vs (%d,%d)", gotThen, gotElse, wantThen, wantElse)
	}
	if mT != 1 {
		t.Errorf("then-path should still multiply once, did %d times", mT)
	}
	if mE != 0 {
		t.Errorf("partially-dead multiply still executes on the else path\n%s", f)
	}
}

// TestPREPreservesNoPartialDeadness: "Subsequent application of PRE
// will preserve this invariant, since PRE will never place an
// expression on a path where it is partially dead."  After forward
// propagation, running PRE must not reintroduce the multiply on the
// dead path.
func TestPREPreservesNoPartialDeadness(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    mul r1, r2 => r3
    cbr r1 -> b1, b2
b1:
    add r3, r2 => r4
    ret r4
b2:
    ret r2
}
`
	f := ir.MustParseFunc(src)
	run := func(g *ir.Func, a int64) int64 {
		m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{g.Clone()}})
		m.EnableOpCounts()
		if _, err := m.Call("f", interp.IntVal(a), interp.IntVal(7)); err != nil {
			t.Fatalf("%v\n%s", err, g)
		}
		return m.OpCounts[ir.OpMul]
	}
	reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
	// Reuse the full post-reassociation pipeline pieces via pre alone;
	// PRE must keep the else path multiply-free.
	applyPRE(t, f)
	if muls := run(f, 0); muls != 0 {
		t.Errorf("PRE reintroduced the multiply on the dead path (%d)\n%s", muls, f)
	}
	if muls := run(f, 3); muls != 1 {
		t.Errorf("then path multiplies %d times, want 1\n%s", muls, f)
	}
}

// applyPRE runs the PRE pass used by the pipelines.
func applyPRE(t *testing.T, f *ir.Func) {
	t.Helper()
	pre.RunToFixpoint(context.Background(), f, analysis.NewCache(f), pre.Drechsler)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}
