package reassoc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
)

// TestDistributePaperExample checks the paper's §3.1 example: with
// a,b,c,d of rank 1 and e of rank 2, a + b×((c+d)+e) distributes
// partially into a + b×(c+d) + b×e (modulo commutative tie order).
func TestDistributePaperExample(t *testing.T) {
	a := RegLeaf(1, 1)
	b := RegLeaf(2, 1)
	c := RegLeaf(3, 1)
	d := RegLeaf(4, 1)
	e := RegLeaf(5, 2)
	tree := NewNode(ir.OpAdd, a, NewNode(ir.OpMul, b, NewNode(ir.OpAdd, NewNode(ir.OpAdd, c, d), e)))
	got := Transform(tree, true, true).String()
	want := "(add (mul (add r3 r4) r2) r1 (mul r2 r5))"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestDistributeAddress checks the array-address case: the rank-0
// element size distributes over the index sum so the column offset can
// be hoisted: base + ((i−1) + (j−1)·ld)·8 → base + 8·(i−1) + 8·((j−1)·ld).
func TestDistributeAddress(t *testing.T) {
	base := RegLeaf(1, 1)
	i := RegLeaf(2, 3) // inner loop
	j := RegLeaf(3, 2) // outer loop
	ld := RegLeaf(4, 1)
	one := IntLeaf(1)
	sum := NewNode(ir.OpAdd,
		NewNode(ir.OpSub, i, one),
		NewNode(ir.OpMul, NewNode(ir.OpSub, j, one.Clone()), ld))
	addr := NewNode(ir.OpAdd, base, NewNode(ir.OpMul, sum, IntLeaf(8)))
	got := Transform(addr.Clone(), true, true)
	nodist := Transform(addr, false, true)
	t.Logf("no-dist: %s", nodist)
	t.Logf("dist:    %s", got)
	// With distribution the multiply by 8 must have been split so that
	// a product involving only j/ld appears as its own operand of the
	// top-level sum.
	if got.Op != ir.OpAdd || len(got.Kids) < 3 {
		t.Fatalf("expected distributed top-level sum with ≥3 terms, got %s", got)
	}
}

// TestStructuralKeyMatchesFmt: the sort keys are written without fmt
// but must be the bytes "r%09d" and "c%020d" give, sign and padding
// included, so the order sortKids imposes does not move.
func TestStructuralKeyMatchesFmt(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -42, 999999999, 1000000000, math.MinInt64, math.MaxInt64} {
		if got, want := structuralKey(IntLeaf(v)), fmt.Sprintf("c%020d", v); got != want {
			t.Errorf("constant %d: key %q, fmt %q", v, got, want)
		}
	}
	for _, r := range []ir.Reg{0, 1, 7, 123456789, 999999999, 1000000000, math.MaxInt32} {
		if got, want := structuralKey(RegLeaf(r, 1)), fmt.Sprintf("r%09d", r); got != want {
			t.Errorf("register %d: key %q, fmt %q", r, got, want)
		}
	}
	n := NewNode(ir.OpAdd, RegLeaf(5, 1), IntLeaf(-3))
	if got, want := structuralKey(n), fmt.Sprintf("o%03d|r%09d|c%020d", ir.OpAdd, 5, -3); got != want {
		t.Errorf("add node: key %q, want %q", got, want)
	}
}
