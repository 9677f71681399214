package cse_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cse"
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

// straightline: a dominating redundancy every scheme removes.
const straightline = `
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

// diamondFull: x+y in both arms and after the join — AVAIL and PRE
// remove the join occurrence, dominator CSE cannot (§5.3).
const diamondFull = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r3
    mul r3, r3 => r4
    jump -> b3
b2:
    add r1, r2 => r3
    loadI 1 => r4
    jump -> b3
b3:
    add r1, r2 => r3
    add r4, r3 => r5
    ret r5
}
`

// diamondPartial: x+y in one arm and after the join — only PRE.
const diamondPartial = `
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
    add r1, r2 => r3
    add r4, r3 => r5
    ret r5
}
`

func removals(t *testing.T, src string, scheme string) int {
	t.Helper()
	f := ir.MustParseFunc(src)
	before := f.InstrCount()
	var after int
	switch scheme {
	case "dom":
		cse.RunDominator(f, analysis.NewCache(f))
		after = f.InstrCount()
	case "avail":
		cse.RunAvail(f, analysis.NewCache(f))
		after = f.InstrCount()
	case "pre":
		pre.RunToFixpoint(context.Background(), f, analysis.NewCache(f), pre.Drechsler)
		// PRE inserts as well as deletes; count deletions net of
		// insertions by comparing computation counts is messy — use
		// static delta and allow negatives.
		after = f.InstrCount()
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	// Semantics must hold for both branch directions.
	for _, a := range []int64{0, 1} {
		g := ir.MustParseFunc(src)
		want, _ := run(t, g, a, 7)
		got, _ := run(t, f, a, 7)
		if want.I != got.I {
			t.Fatalf("%s broke semantics on arg %d: %d vs %d\n%s", scheme, a, got.I, want.I, f)
		}
	}
	return before - after
}

// TestDominatorCSERemovesDominated: the straight-line redundancy.
func TestDominatorCSERemovesDominated(t *testing.T) {
	if n := removals(t, straightline, "dom"); n != 1 {
		t.Errorf("dominator CSE removed %d, want 1", n)
	}
}

// TestHierarchy is §5.3: "These methods form a hierarchy."
func TestHierarchy(t *testing.T) {
	type row struct {
		src  string
		name string
		dom  int
		avl  int
	}
	cases := []row{
		{straightline, "straightline", 1, 1},
		{diamondFull, "diamond-full", 0, 1},
		{diamondPartial, "diamond-partial", 0, 0},
	}
	for _, c := range cases {
		dom := removals(t, c.src, "dom")
		avl := removals(t, c.src, "avail")
		if dom != c.dom {
			t.Errorf("%s: dominator CSE removed %d, want %d", c.name, dom, c.dom)
		}
		if avl != c.avl {
			t.Errorf("%s: AVAIL CSE removed %d, want %d", c.name, avl, c.avl)
		}
		if dom > avl {
			t.Errorf("%s: hierarchy violated: dom %d > avail %d", c.name, dom, avl)
		}
	}
	// PRE handles the partial case: the else-path dynamic count drops.
	f := ir.MustParseFunc(diamondPartial)
	_, elseBefore := run(t, f, 0, 7)
	pre.RunToFixpoint(context.Background(), f, analysis.NewCache(f), pre.Drechsler)
	_, elseAfterRaw := run(t, f, 0, 7)
	// PRE's Mode B may add copies; measure computations by also
	// checking the then path never lengthens beyond +copies.
	if elseAfterRaw > elseBefore+1 {
		t.Errorf("PRE did not convert the partial redundancy: %d -> %d\n%s",
			elseBefore, elseAfterRaw, f)
	}
}

// TestDomCSEConservativeWithKills: a redundant-looking expression
// whose operand changes between the occurrences must stay.
func TestDomCSEConservativeWithKills(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    mul r3, r3 => r4
    loadI 1 => r5
    add r1, r5 => r1
    add r1, r2 => r3
    add r4, r3 => r6
    ret r6
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 2, 3)
	st := cse.RunDominator(f, analysis.NewCache(f))
	got, _ := run(t, f, 2, 3)
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
	if st.Removed != 0 {
		t.Errorf("removed a killed expression: %+v\n%s", st, f)
	}
}

// TestAvailCSELoopKills: an expression recomputed in a loop whose
// operand the loop modifies is not available at the loop entry of the
// next iteration.
func TestAvailCSELoopKills(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 0 => r3
    jump -> b1
b1:
    loadI 1 => r4
    add r2, r4 => r2
    add r2, r2 => r5
    add r3, r5 => r3
    cmpLT r2, r1 => r6
    cbr r6 -> b1, b2
b2:
    ret r3
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 4)
	st := cse.RunAvail(f, analysis.NewCache(f))
	got, _ := run(t, f, 4)
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
	if st.Removed != 0 {
		t.Errorf("removed a loop-varying expression: %+v\n%s", st, f)
	}
}
