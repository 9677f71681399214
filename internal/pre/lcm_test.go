package pre

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// TestLCMIfExample is the §2 diamond: x+y in the then-arm and again
// after the join.  LCM must insert on the else side and turn the join
// computation into a copy, shortening the then path without
// lengthening the else path.
func TestLCMIfExample(t *testing.T) {
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

	st := once(f, LCM)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if st.Inserted == 0 || st.Replaced == 0 {
		t.Errorf("stats show no motion: %+v", st)
	}
	cleanup(f)
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
}

// TestLCMLoopInvariant: x+y recomputed on every iteration must move to
// the (split-edge) preheader, leaving at most the two accumulator adds
// inside the loop.
func TestLCMLoopInvariant(t *testing.T) {
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
	fixpoint(f, LCM)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	cleanup(f)
	got, after := run(t, f, "f", 3, 4, 10)
	if got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	if before-after < 9 {
		t.Errorf("expected ≥9 ops saved hoisting the invariant, got %d (%d -> %d)\n%s",
			before-after, before, after, f)
	}
	li := analysis.NewCache(f).Loops()
	adds := 0
	for _, b := range f.Blocks {
		if li.Depth(b) == 0 {
			continue
		}
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpAdd {
				adds++
			}
		}
	}
	if adds > 2 {
		t.Errorf("loop still has %d adds, want ≤2\n%s", adds, f)
	}
}

// TestLCMDownSafety is the backend's defining guarantee: LCM never
// inserts a computation on a path that did not already compute it.
// Both programs compute the expression on only one side of a branch
// (the second inside a loop, the classic speculation temptation), so
// any insertion reachable without passing an original computation
// would lengthen the skip path.  The dynamic op count on that path
// must not grow, and the expression must not appear in any block it
// did not occupy before.
func TestLCMDownSafety(t *testing.T) {
	cases := []struct {
		src      string
		args     []int64 // drives the path that skips the computation
		computes string  // the only block allowed to hold mul r2, r2
	}{
		{`
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
`, []int64{0, 5}, "b1"},
		{`
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    cmpLT r5, r1 => r6
    cbr r6 -> b2, b3
b2:
    mul r2, r2 => r7
    add r4, r7 => r4
    jump -> b3
b3:
    loadI 1 => r8
    add r5, r8 => r5
    cmpLT r5, r3 => r9
    cbr r9 -> b1, b4
b4:
    ret r4
}
`, []int64{0, 5, 10}, "b2"},
	}
	for ci, c := range cases {
		f := ir.MustParseFunc(c.src)
		want, before := run(t, f, "f", c.args...)
		fixpoint(f, LCM)
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
		cleanup(f)
		got, after := run(t, f, "f", c.args...)
		if got != want {
			t.Errorf("case %d: semantics changed: %d vs %d", ci, got, want)
		}
		if after > before {
			t.Errorf("case %d: skip path lengthened %d -> %d\n%s", ci, before, after, f)
		}
		for _, b := range f.Blocks {
			for _, inID := range b.Instrs {
				in := b.Fn.Instr(inID)
				if in.Op == ir.OpMul && len(in.Args) == 2 && in.Args[0] == 2 && in.Args[1] == 2 &&
					b.Name != c.computes {
					t.Errorf("case %d: mul r2, r2 speculated into %s\n%s", ci, b.Name, f)
				}
			}
		}
	}
}

// TestLCMLoadsNotHoistedPastStores: a load in a loop containing a
// store to an unknown address must stay put (transparency kills it).
func TestLCMLoadsNotHoistedPastStores(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    jump -> b1
b1:
    ldw [r1] => r5
    stw r5 => [r2]
    loadI 1 => r6
    add r4, r6 => r4
    cmpLT r4, r3 => r7
    cbr r7 -> b1, b2
b2:
    ret r5
}
`
	f := ir.MustParseFunc(src)
	st := fixpoint(f, LCM)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if b.Name != "b1" {
			for _, inID := range b.Instrs {
				in := b.Fn.Instr(inID)
				if in.Op == ir.OpLoadW {
					t.Fatalf("load hoisted out of the store loop (stats %+v)\n%s", st, f)
				}
			}
		}
	}
}

// TestLCMIsolation: a computation whose only consumer is in its own
// block (nothing downstream would reuse the temp) must be left alone —
// no insertion, no copy churn.
func TestLCMIsolation(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    ret r3
}
`
	f := ir.MustParseFunc(src)
	st := once(f, LCM)
	if st.Inserted != 0 || st.Replaced != 0 {
		t.Errorf("isolated computation moved: %+v\n%s", st, f)
	}
}
