package ssa_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// loopFunc is the paper's Figure 3 shape.
const loopFunc = `
func foo(r1, r2) {
b0:
    enter(r1, r2)
    loadI 0 => r3
    add r1, r2 => r4
    copy r4 => r5
    loadI 100 => r6
    cmpGT r5, r6 => r7
    cbr r7 -> b3, b1
b1:
    loadI 1 => r8
    add r8, r3 => r9
    add r9, r4 => r10
    copy r10 => r3
    loadI 1 => r11
    add r5, r11 => r12
    copy r12 => r5
    loadI 100 => r13
    cmpLE r5, r13 => r14
    cbr r14 -> b1, b2
b2:
    jump -> b3
b3:
    ret r3
}
`

func runFoo(t *testing.T, f *ir.Func, y, z int64) int64 {
	t.Helper()
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
	v, err := m.Call("foo", interp.IntVal(y), interp.IntVal(z))
	if err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	return v.I
}

// checkSSAInvariants verifies single assignment and def-dominates-use.
func checkSSAInvariants(t *testing.T, f *ir.Func) {
	t.Helper()
	defs := map[ir.Reg]int{}
	defBlock := map[ir.Reg]*ir.Block{}
	defIdx := map[ir.Reg]int{}
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpEnter {
			for _, p := range in.Args {
				defs[p]++
				defBlock[p] = b
				defIdx[p] = i
			}
			return
		}
		if in.Dst != ir.NoReg {
			defs[in.Dst]++
			defBlock[in.Dst] = b
			defIdx[in.Dst] = i
		}
	})
	for r, n := range defs {
		if n != 1 {
			t.Errorf("register %s has %d definitions\n%s", r, n, f)
		}
	}
	dom := analysis.NewCache(f).DomTree()
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpEnter {
			return
		}
		if in.Op == ir.OpPhi {
			// φ operand defs must dominate the corresponding pred end.
			for pi, a := range in.Args {
				db := defBlock[a]
				if db == nil {
					t.Errorf("φ operand %s undefined", a)
					continue
				}
				if pi < len(b.Preds) && !dom.Dominates(db, b.Preds[pi]) {
					t.Errorf("φ operand %s def in %s does not dominate pred %s", a, db.Name, b.Preds[pi].Name)
				}
			}
			return
		}
		for _, a := range in.Args {
			db := defBlock[a]
			if db == nil {
				t.Errorf("use of undefined register %s in %s", a, b.Name)
				continue
			}
			if db == b {
				if defIdx[a] >= i {
					t.Errorf("use of %s in %s before its definition", a, b.Name)
				}
			} else if !dom.Dominates(db, b) {
				t.Errorf("def of %s in %s does not dominate use in %s\n%s", a, db.Name, b.Name, f)
			}
		}
	})
}

func TestBuildProducesValidSSA(t *testing.T) {
	f := ir.MustParseFunc(loopFunc)
	want := runFoo(t, f, 1, 2)
	ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	checkSSAInvariants(t, f)
	if got := runFoo(t, f, 1, 2); got != want {
		t.Errorf("SSA changed semantics: %d vs %d", got, want)
	}
	// Copy folding must have removed all copies.
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpCopy {
			t.Errorf("copy survived folding: %s", f.InstrString(in))
		}
	})
	// Pruned SSA for this function needs φs for s and i in the loop
	// header and for s at the exit join (or fewer after pruning).
	phis := 0
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpPhi {
			phis++
		}
	})
	if phis < 2 || phis > 4 {
		t.Errorf("unexpected φ count %d\n%s", phis, f)
	}
}

func TestBuildWithoutPruning(t *testing.T) {
	f := ir.MustParseFunc(loopFunc)
	want := runFoo(t, f, 5, 6)
	ssa.Build(f, ssa.BuildOptions{Prune: false, FoldCopies: false}, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	checkSSAInvariants(t, f)
	if got := runFoo(t, f, 5, 6); got != want {
		t.Errorf("semantics changed: %d vs %d", got, want)
	}
}

// TestBuildUndefinedUseInEntry: a use of a never-defined register in
// the entry block gets the zero register, whose definition lands in the
// same block that renaming walks.
func TestBuildUndefinedUseInEntry(t *testing.T) {
	for _, opt := range []ssa.BuildOptions{{Prune: true, FoldCopies: true}, {}} {
		f := ir.MustParseFunc(`
func main(r1) {
b0:
    enter(r1)
    add r1, r2 => r3
    ret r3
}
`)
		ssa.Build(f, opt, analysis.NewCache(f))
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
		checkSSAInvariants(t, f)
		m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
		v, err := m.Call("main", interp.IntVal(5))
		if err != nil {
			t.Fatalf("%v\n%s", err, f)
		}
		if v.I != 5 {
			t.Errorf("main(5) = %d, want 5 (undefined r2 reads as 0)\n%s", v.I, f)
		}
	}
}

func TestDestructRoundTrip(t *testing.T) {
	for _, in := range [][2]int64{{1, 2}, {50, 50}, {200, 0}} {
		f := ir.MustParseFunc(loopFunc)
		want := runFoo(t, f, in[0], in[1])
		ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, analysis.NewCache(f))
		ssa.Destruct(f, analysis.NewCache(f))
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
		f.ForEachInstr(func(b *ir.Block, i int, instr *ir.Instr) {
			if instr.Op == ir.OpPhi {
				t.Errorf("φ survived destruction")
			}
		})
		if got := runFoo(t, f, in[0], in[1]); got != want {
			t.Errorf("foo(%d,%d) = %d, want %d", in[0], in[1], got, want)
		}
	}
}

// TestSwapProblemExplicit checks the parallel-copy cycle: two φs that
// swap values around a loop.  Naive per-φ copy insertion computes one
// side with the already-overwritten value.
func TestSwapProblemExplicit(t *testing.T) {
	const swap = `
func swap(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    copy r1 => r4
    copy r2 => r5
    loadI 0 => r6
    jump -> b1
b1:
    copy r4 => r7
    copy r5 => r4
    copy r7 => r5
    loadI 1 => r8
    add r6, r8 => r6
    cmpLT r6, r3 => r9
    cbr r9 -> b1, b2
b2:
    loadI 1000 => r10
    mul r4, r10 => r11
    add r11, r5 => r12
    ret r12
}
`
	ref := func(a, b, n int64) int64 {
		for i := int64(0); i < n; i++ {
			a, b = b, a
		}
		return a*1000 + b
	}
	run := func(f *ir.Func, a, b, n int64) int64 {
		m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
		v, err := m.Call("swap", interp.IntVal(a), interp.IntVal(b), interp.IntVal(n))
		if err != nil {
			t.Fatalf("%v\n%s", err, f)
		}
		return v.I
	}
	for _, n := range []int64{1, 2, 3, 8} {
		f := ir.MustParseFunc(swap)
		want := ref(1, 2, n)
		if got := run(f, 1, 2, n); got != want {
			t.Fatalf("sanity: swap(1,2,%d) = %d, want %d", n, got, want)
		}
		ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, analysis.NewCache(f))
		checkSSAInvariants(t, f)
		ssa.Destruct(f, analysis.NewCache(f))
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
		if got := run(f, 1, 2, n); got != want {
			t.Errorf("after SSA round trip: swap(1,2,%d) = %d, want %d\n%s", n, got, want, f)
		}
	}
}

func TestSequentializeParallelCopy(t *testing.T) {
	f := ir.NewFunc("f", 0)
	for i := 0; i < 10; i++ {
		f.NewReg()
	}
	cases := []struct {
		dsts, srcs []ir.Reg
	}{
		{[]ir.Reg{1}, []ir.Reg{2}},                   // simple
		{[]ir.Reg{1, 2}, []ir.Reg{2, 1}},             // swap
		{[]ir.Reg{1, 2, 3}, []ir.Reg{2, 3, 1}},       // 3-cycle
		{[]ir.Reg{1, 2, 3, 4}, []ir.Reg{2, 1, 4, 3}}, // two swaps
		{[]ir.Reg{1, 2, 3}, []ir.Reg{4, 1, 2}},       // chain
		{[]ir.Reg{1, 2, 3, 5}, []ir.Reg{2, 3, 1, 1}}, // cycle + reader
	}
	for ci, c := range cases {
		copies := ssa.SequentializeParallelCopy(f, c.dsts, c.srcs)
		// Simulate: registers hold their own index initially.
		env := map[ir.Reg]int64{}
		for r := ir.Reg(1); r < 10; r++ {
			env[r] = int64(r)
		}
		for _, cp := range copies {
			env[cp.Dst] = env[cp.Args[0]]
		}
		for i, d := range c.dsts {
			if env[d] != int64(c.srcs[i]) {
				t.Errorf("case %d: %s = %d, want %d (copies: %v)", ci, d, env[d], c.srcs[i], copies)
			}
		}
	}
}

// TestDestructBranchReadsPhi: the lost-copy problem on a critical edge.
// The loop's cbr reads the φ destination (the counter's value before
// the decrement), and the back edge is critical.  The destination is
// dead on the exit edge, but a copy placed at the end of the latch
// would still run before the cbr and overwrite its operand, so the
// edge must be split.
func TestDestructBranchReadsPhi(t *testing.T) {
	const count = `
func count(r1) {
b0:
    enter(r1)
    jump -> b1
b1:
    phi r1, r3 => r2
    loadI 1 => r4
    sub r2, r4 => r3
    cbr r2 -> b1, b2
b2:
    ret r3
}
`
	run := func(f *ir.Func, n int64) int64 {
		m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
		m.MaxSteps = 1000
		v, err := m.Call("count", interp.IntVal(n))
		if err != nil {
			t.Fatalf("%v\n%s", err, f)
		}
		return v.I
	}
	for _, n := range []int64{0, 1, 3} {
		f := ir.MustParseFunc(count)
		ssa.Destruct(f, analysis.NewCache(f))
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
		if got := run(f, n); got != -1 {
			t.Errorf("count(%d) = %d, want -1\n%s", n, got, f)
		}
	}
}
