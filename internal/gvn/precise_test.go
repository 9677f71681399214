package gvn_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/gvn"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/ssa"
)

// classOf looks a register's congruence class up in a register-indexed
// class table, failing the test for a non-value register.
func classOf(t *testing.T, class []uint32, r ir.Reg) uint32 {
	t.Helper()
	if int(r) >= len(class) || class[r] == 0 {
		t.Fatalf("r%d is not a value (class table len %d)", r, len(class))
	}
	return class[r]
}

// TestPreciseFoldPhi: φ(x, x) ≡ x.  AWZ keys φs by their block and
// never merges a φ with a non-φ, so this is precisely the kind of
// congruence only the iterative backend discovers.
func TestPreciseFoldPhi(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    cmpLT r1, r1 => r2
    cbr r2 -> b1, b2
b1:
    jump -> b3
b2:
    jump -> b3
b3:
    phi r1, r1 => r3
    add r3, r1 => r4
    add r1, r1 => r5
    ret r4
}
`
	f := ir.MustParseFunc(src)
	_, pc := gvn.PreciseClasses(f, cfg.ReversePostorder(f))
	if classOf(t, pc, 3) != classOf(t, pc, 1) {
		t.Errorf("φ(x,x) not congruent to x under precise GVN")
	}
	// The add over the folded φ matches the add over x directly.
	if classOf(t, pc, 4) != classOf(t, pc, 5) {
		t.Errorf("add over folded φ not congruent to add over x")
	}
	_, ac := gvn.AWZClasses(f)
	if classOf(t, ac, 3) == classOf(t, ac, 1) {
		t.Errorf("test premise broken: AWZ already folds φ(x,x)")
	}
}

// TestPreciseComposePhi: φ(x+1, y+1) ≡ φ(x, y)+1 — the compose rule
// pushes the operator below the value-φ, so the real φ over the sums
// and the phantom φ under the add meet in one class.
func TestPreciseComposePhi(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    loadI 1 => r3
    cmpLT r1, r2 => r4
    cbr r4 -> b1, b2
b1:
    add r1, r3 => r5
    jump -> b3
b2:
    add r2, r3 => r6
    jump -> b3
b3:
    phi r5, r6 => r7
    phi r1, r2 => r8
    add r8, r3 => r9
    ret r9
}
`
	f := ir.MustParseFunc(src)
	_, pc := gvn.PreciseClasses(f, cfg.ReversePostorder(f))
	if classOf(t, pc, 7) != classOf(t, pc, 9) {
		t.Errorf("φ(x+1,y+1) not congruent to φ(x,y)+1 under precise GVN")
	}
	_, ac := gvn.AWZClasses(f)
	if classOf(t, ac, 7) == classOf(t, ac, 9) {
		t.Errorf("test premise broken: AWZ already composes value-φs")
	}

	// End to end: renaming the discovered class must preserve results.
	// (The source is already in SSA form, so rename in place rather
	// than round-tripping through SSA construction.)
	g := ir.MustParseFunc(src)
	want, _ := run(t, g, 3, 9)
	gvn.PartitionPrecise(g, cfg.ReversePostorder(g))
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, g, 3, 9)
	if got.I != want.I {
		t.Fatalf("precise GVN changed semantics: %d vs %d", got.I, want.I)
	}
}

// TestRunPreciseEndToEnd: the full pipeline entry point — SSA
// construction, precise partition, renaming, SSA destruction — on
// non-SSA input, semantics preserved and congruence discovered.
func TestRunPreciseEndToEnd(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 0 => r3
    loadI 0 => r4
    jump -> b1
b1:
    loadI 1 => r5
    add r2, r5 => r2
    loadI 1 => r6
    add r3, r6 => r3
    add r4, r2 => r4
    add r4, r3 => r4
    cmpLT r2, r1 => r7
    cbr r7 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 10)
	st := gvn.RunPrecise(f, analysis.NewCache(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, f, 10)
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
	if st.Classes >= st.Values {
		t.Errorf("no congruence discovered: %+v", st)
	}
}

// TestPreciseSelfPhi: a loop-invariant value carried by a
// self-referential φ on the back edge — r3 = φ(r2, r3) — folds to its
// initial value.
func TestPreciseSelfPhi(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 7 => r2
    loadI 0 => r4
    jump -> b1
b1:
    phi r2, r3 => r3
    phi r4, r6 => r5
    add r5, r3 => r6
    cmpLT r6, r1 => r7
    cbr r7 -> b1, b2
b2:
    ret r6
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, 50)
	_, pc := gvn.PreciseClasses(f, cfg.ReversePostorder(f))
	if classOf(t, pc, 3) != classOf(t, pc, 2) {
		t.Errorf("self-referential φ not folded to its loop-invariant input")
	}
	st := gvn.PartitionPrecise(f, cfg.ReversePostorder(f))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if st.Classes >= st.Values {
		t.Errorf("no congruence found: %+v", st)
	}
	got, _ := run(t, f, 50)
	if got.I != want.I {
		t.Fatalf("renaming changed semantics: %d vs %d", got.I, want.I)
	}
}

// TestPreciseBackEdgeCongruence: the classic two-induction-variable
// loop — optimism must survive the back edge for both backends, and
// the precise partition must still group the counters.
func TestPreciseBackEdgeCongruence(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 0 => r3
    loadI 1 => r4
    jump -> b1
b1:
    phi r2, r6 => r5
    phi r3, r8 => r7
    add r5, r4 => r6
    add r7, r4 => r8
    cmpLT r6, r1 => r9
    cbr r9 -> b1, b2
b2:
    add r6, r8 => r10
    ret r10
}
`
	f := ir.MustParseFunc(src)
	_, pc := gvn.PreciseClasses(f, cfg.ReversePostorder(f))
	if classOf(t, pc, 5) != classOf(t, pc, 7) {
		t.Errorf("congruent loop φs not merged")
	}
	if classOf(t, pc, 6) != classOf(t, pc, 8) {
		t.Errorf("congruent induction updates not merged")
	}
	// r2 and r3 are both loadI 0.
	if classOf(t, pc, 2) != classOf(t, pc, 3) {
		t.Errorf("equal constants not merged")
	}
}

// TestPreciseCommutativeCanon: a+b ≡ b+a under the precise backend
// (AWZ's positional refinement cannot see it).
func TestPreciseCommutativeCanon(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    add r2, r1 => r4
    sub r1, r2 => r5
    sub r2, r1 => r6
    ret r3
}
`
	f := ir.MustParseFunc(src)
	_, pc := gvn.PreciseClasses(f, cfg.ReversePostorder(f))
	if classOf(t, pc, 3) != classOf(t, pc, 4) {
		t.Errorf("commutative operands not canonicalized")
	}
	if classOf(t, pc, 5) == classOf(t, pc, 6) {
		t.Errorf("non-commutative sub wrongly canonicalized")
	}
}

// TestPreciseMixedIntFloatDistinct: loadI 0 and loadF 0 share a bit
// pattern but must never be congruent, and neither may int and float
// arithmetic over them.
func TestPreciseMixedIntFloatDistinct(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadF 0 => r3
    loadI 0 => r4
    loadF 0 => r5
    add r2, r4 => r6
    fadd r3, r5 => r7
    ret r6
}
`
	f := ir.MustParseFunc(src)
	_, pc := gvn.PreciseClasses(f, cfg.ReversePostorder(f))
	if classOf(t, pc, 2) == classOf(t, pc, 3) {
		t.Errorf("int 0 and float 0.0 wrongly congruent")
	}
	if classOf(t, pc, 2) != classOf(t, pc, 4) {
		t.Errorf("equal int constants not congruent")
	}
	if classOf(t, pc, 3) != classOf(t, pc, 5) {
		t.Errorf("equal float constants not congruent")
	}
	if classOf(t, pc, 6) == classOf(t, pc, 7) {
		t.Errorf("add and fadd results wrongly congruent")
	}
}

// refinesAWZ asserts the AWZ-refinement invariant on one SSA-form
// function: every AWZ congruence also holds under the precise backend
// (precise is coarser-or-equal; it only ever adds equivalences).
func refinesAWZ(t *testing.T, f *ir.Func, tag string) {
	t.Helper()
	values, ac := gvn.AWZClasses(f)
	_, pc := gvn.PreciseClasses(f, cfg.ReversePostorder(f))
	// For each AWZ class, all members must share one precise class.
	rep := map[uint32]uint32{} // AWZ class -> precise class of first member
	for _, v := range values {
		p, ok := rep[ac[v]]
		if !ok {
			rep[ac[v]] = pc[v]
			continue
		}
		if pc[v] != p {
			t.Errorf("%s: AWZ congruence split by precise backend (r%d: awz=%d precise=%d vs %d)",
				tag, v, ac[v], pc[v], p)
			return
		}
	}
}

// TestPreciseRefinesAWZRandom: on random programs — including
// irreducible CFGs — the precise partition must be a coarsening of
// AWZ's, and renaming from it must preserve behavior.
func TestPreciseRefinesAWZRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := progen.ForSeed(seed)
		prog := progen.Generate(cfg, seed)
		ref := interp.NewMachine(prog.Clone())
		refVals := make(map[string]interp.Value)
		for _, f := range prog.Funcs {
			if f.Name != "main" {
				continue
			}
			var args []interp.Value
			for i := 0; i < cfg.IntParams; i++ {
				args = append(args, interp.IntVal(int64(seed)+int64(i)))
			}
			for i := 0; i < cfg.FloatParams; i++ {
				args = append(args, interp.FloatVal(float64(seed)*0.5))
			}
			v, err := ref.Call(f.Name, args...)
			if err != nil {
				t.Fatalf("seed %d: reference run: %v", seed, err)
			}
			refVals[f.Name] = v

			ac := analysis.NewCache(f)
			ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, ac)
			refinesAWZ(t, f, "seed")
			gvn.PartitionPrecise(f, ac.RPO())
			ssa.Destruct(f, ac)
			if err := ir.Verify(f); err != nil {
				t.Fatalf("seed %d: after precise GVN: %v\n%s", seed, err, f)
			}
			m := interp.NewMachine(prog)
			got, err := m.Call(f.Name, args...)
			if err != nil {
				t.Fatalf("seed %d: optimized run: %v", seed, err)
			}
			if got != v {
				t.Fatalf("seed %d: precise GVN changed main's result: %v vs %v", seed, got, v)
			}
		}
	}
}

// TestPreciseIrreducible: the iterative analysis converges on
// explicitly irreducible CFGs (two-entry cycles progen can emit) and
// still refines AWZ there.
func TestPreciseIrreducible(t *testing.T) {
	n := 0
	for seed := uint64(1); seed <= 200 && n < 10; seed++ {
		cfg := progen.ForSeed(seed)
		if !cfg.Irreducible {
			continue
		}
		n++
		prog := progen.Generate(cfg, seed)
		for _, f := range prog.Funcs {
			ac := analysis.NewCache(f)
			ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, ac)
			refinesAWZ(t, f, "irreducible")
			st := gvn.PartitionPrecise(f, ac.RPO())
			if st.Values > 0 && st.Classes == 0 {
				t.Errorf("seed %d %s: empty partition over %d values", seed, f.Name, st.Values)
			}
			ssa.Destruct(f, ac)
			if err := ir.Verify(f); err != nil {
				t.Fatalf("seed %d %s: %v", seed, f.Name, err)
			}
		}
	}
	if n == 0 {
		t.Fatal("no irreducible configs among the first 200 seeds")
	}
}
