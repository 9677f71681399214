package dataflow_test

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/progen"
)

func TestAndNotOf(t *testing.T) {
	const n = 100
	x, y := mkSet(n, 0b11011), mkSet(n, 0b01110)
	dst := mkSet(n, 0xffff) // pre-filled: AndNotOf must fully overwrite
	dst.AndNotOf(x, y)
	if got := dst.String(); got != "{0, 4}" {
		t.Errorf("AndNotOf = %s, want {0, 4}", got)
	}
	// s may alias t: s = s ∖ u.
	x.AndNotOf(x, y)
	if !x.Equal(dst) {
		t.Errorf("aliased AndNotOf = %s, want %s", x, dst)
	}
}

// The diamond used by the forward and backward solver tests:
//
//	b0 → {b1, b2} → b3
//
// b1 computes r1+r2, b2 kills r2, b3 computes r1+r2.
const solveDiamond = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r3
    jump -> b3
b2:
    loadI 7 => r2
    jump -> b3
b3:
    add r1, r2 => r4
    ret r4
}
`

// universeFor builds the expression universe plus the block-name index
// for one parsed function.
func universeFor(t *testing.T, src string) (*ir.Func, *dataflow.Universe, map[string]*ir.Block) {
	t.Helper()
	f := ir.MustParseFunc(src)
	u := dataflow.BuildUniverse(f, nil)
	byName := map[string]*ir.Block{}
	for _, b := range f.Blocks {
		byName[b.Name] = b
	}
	return f, u, byName
}

func TestSolveForwardAvailability(t *testing.T) {
	f, u, byName := universeFor(t, solveDiamond)
	in, out := u.Availability(cfg.ReversePostorder(f), nil)

	k, _ := dataflow.KeyOf(f.NewInstr(ir.OpAdd, 99, 1, 2))
	e, _ := u.Lookup(k)
	// r1+r2 is available out of b1, killed by b2's write to r2, so the
	// all-paths meet at the join must drop it.
	if !out.Row(byName["b1"].ID).Has(e) {
		t.Error("r1+r2 must be available out of b1")
	}
	if out.Row(byName["b2"].ID).Has(e) {
		t.Error("r1+r2 must not be available out of b2 (r2 redefined)")
	}
	if in.Row(byName["b3"].ID).Has(e) {
		t.Error("MeetAll at the join must intersect away r1+r2")
	}
}

func TestSolveBackwardAnticipability(t *testing.T) {
	f, u, byName := universeFor(t, solveDiamond)
	in, out := u.Anticipability(cfg.ReversePostorder(f), nil)

	k, _ := dataflow.KeyOf(f.NewInstr(ir.OpAdd, 99, 1, 2))
	e, _ := u.Lookup(k)
	// Every path from b0 reaches b3's r1+r2, but b2 redefines r2 on the
	// way, so the expression is anticipated at b0's exit only via b1.
	if !in.Row(byName["b3"].ID).Has(e) {
		t.Error("r1+r2 must be anticipated into b3")
	}
	if !in.Row(byName["b1"].ID).Has(e) {
		t.Error("r1+r2 must be anticipated into b1 (transparent)")
	}
	if in.Row(byName["b2"].ID).Has(e) {
		t.Error("r1+r2 must not be anticipated into b2 (kill)")
	}
	if out.Row(byName["b3"].ID).Count() != 0 {
		t.Error("exit block's out-set must be the empty-meet boundary ∅")
	}
}

func TestSolveBackwardMeetAny(t *testing.T) {
	// A "used on some later path" (may) problem: LFP from empty seeds,
	// union meet.  At the fork both arms contribute their uses.
	f, u, byName := universeFor(t, solveDiamond)
	n := u.NumExprs()
	rpo := cfg.ReversePostorder(f)
	nb := len(f.Blocks)

	in, out := dataflow.NewBitMatrix(nb, n), dataflow.NewBitMatrix(nb, n)
	dataflow.SolveBackward(rpo, dataflow.MeetAny, out, in,
		func(b *ir.Block, bout, dst dataflow.BitSet) {
			dst.CopyFrom(bout)
			dst.Union(u.AntLoc.Row(b.ID))
		})

	k, _ := dataflow.KeyOf(f.NewInstr(ir.OpAdd, 99, 1, 2))
	e, _ := u.Lookup(k)
	if !out.Row(byName["b0"].ID).Has(e) {
		t.Error("union meet at the fork must see the use in b1")
	}
	if !out.Row(byName["b2"].ID).Has(e) {
		t.Error("b2 must see b3's use downstream")
	}
}

func TestSolveEmptyRPO(t *testing.T) {
	// Degenerate input must be a no-op, not a panic.
	dataflow.SolveForward(nil, dataflow.MeetAll, dataflow.BitMatrix{}, dataflow.BitMatrix{}, nil)
	dataflow.SolveBackward(nil, dataflow.MeetAny, dataflow.BitMatrix{}, dataflow.BitMatrix{}, nil)
}

// roundRobin is the reference the worklist solvers must agree with:
// every block visited in every sweep, in reverse postorder (forward) or
// postorder (backward), until a sweep changes nothing.  facts are the
// solved vectors (out forward, in backward), meets the met ones.
func roundRobin(rpo []*ir.Block, forward bool, meet dataflow.Meet, meets, facts dataflow.BitMatrix, transfer func(b *ir.Block, met, dst dataflow.BitSet)) {
	dst := dataflow.NewBitSet(facts.Len())
	for changed := true; changed; {
		changed = false
		for i := range rpo {
			b, neighbors := rpo[i], rpo[i].Preds
			if !forward {
				b = rpo[len(rpo)-1-i]
				neighbors = b.Succs
			}
			met := meets.Row(b.ID)
			met.ClearAll()
			if meet == dataflow.MeetAll && len(neighbors) > 0 {
				met.SetAll()
			}
			for _, nb := range neighbors {
				if meet == dataflow.MeetAll {
					met.Intersect(facts.Row(nb.ID))
				} else {
					met.Union(facts.Row(nb.ID))
				}
			}
			transfer(b, met, dst)
			if !dst.Equal(facts.Row(b.ID)) {
				facts.Row(b.ID).CopyFrom(dst)
				changed = true
			}
		}
	}
}

// TestWorklistMatchesRoundRobin: on generated CFGs, with random gen and
// kill sets per block, the worklist solvers reach the round-robin
// fixpoint for both meets and both directions, in the met vectors as
// well as the solved ones.
func TestWorklistMatchesRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 70 // two words per set
	solved := 0
	for _, src := range progen.Corpus(1, 60) {
		prog, err := ir.ParseProgramString(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.Funcs {
			rpo, nb := cfg.ReversePostorder(f), len(f.Blocks)
			gen, kill := dataflow.NewBitMatrix(nb, n), dataflow.NewBitMatrix(nb, n)
			for _, b := range f.Blocks {
				for e := range n {
					switch rng.Intn(4) {
					case 0:
						gen.Row(b.ID).Set(e)
					case 1:
						kill.Row(b.ID).Set(e)
					}
				}
			}
			transfer := func(b *ir.Block, met, dst dataflow.BitSet) {
				dst.CopyFrom(met)
				dst.Subtract(kill.Row(b.ID))
				dst.Union(gen.Row(b.ID))
			}
			for _, forward := range []bool{true, false} {
				for _, meet := range []dataflow.Meet{dataflow.MeetAll, dataflow.MeetAny} {
					seed := func() (meets, facts dataflow.BitMatrix) {
						meets, facts = dataflow.NewBitMatrix(nb, n), dataflow.NewBitMatrix(nb, n)
						if meet == dataflow.MeetAll {
							facts.SetAll()
						}
						return meets, facts
					}
					wantMeets, wantFacts := seed()
					roundRobin(rpo, forward, meet, wantMeets, wantFacts, transfer)
					gotMeets, gotFacts := seed()
					if forward {
						dataflow.SolveForward(rpo, meet, gotMeets, gotFacts, transfer)
					} else {
						dataflow.SolveBackward(rpo, meet, gotMeets, gotFacts, transfer)
					}
					solved++
					for _, b := range rpo {
						if !gotFacts.Row(b.ID).Equal(wantFacts.Row(b.ID)) || !gotMeets.Row(b.ID).Equal(wantMeets.Row(b.ID)) {
							t.Fatalf("%s forward=%v meet=%v block %s: worklist %s / %s, round-robin %s / %s",
								f.Name, forward, meet, b.Name, gotMeets.Row(b.ID), gotFacts.Row(b.ID), wantMeets.Row(b.ID), wantFacts.Row(b.ID))
						}
					}
				}
			}
		}
	}
	t.Logf("%d problems solved both ways", solved)
}

// TestSolversAllocateIndependentOfSize: the solvers and liveness
// allocate as many times on a large function as on a small one, so no
// per-block row view or vector reaches the heap.
func TestSolversAllocateIndependentOfSize(t *testing.T) {
	var small, large *ir.Func
	for _, src := range progen.Corpus(1, 60) {
		prog, err := ir.ParseProgramString(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.Funcs {
			if small == nil || len(f.Blocks) < len(small.Blocks) {
				small = f
			}
			if large == nil || len(f.Blocks) > len(large.Blocks) {
				large = f
			}
		}
	}
	if len(large.Blocks) < 8*len(small.Blocks) {
		t.Fatalf("corpus too uniform: %d and %d blocks", len(small.Blocks), len(large.Blocks))
	}
	const n = 70
	allocs := func(f *ir.Func) [3]float64 {
		rpo, nb := cfg.ReversePostorder(f), len(f.Blocks)
		gen := dataflow.NewBitMatrix(nb, n)
		for _, b := range f.Blocks {
			gen.Row(b.ID).Set(b.ID % n)
		}
		in, out := dataflow.NewBitMatrix(nb, n), dataflow.NewBitMatrix(nb, n)
		transfer := func(b *ir.Block, met, dst dataflow.BitSet) {
			dst.CopyFrom(met)
			dst.Union(gen.Row(b.ID))
		}
		reset := func() {
			for i := range nb {
				in.Row(i).ClearAll()
				out.Row(i).ClearAll()
			}
		}
		return [3]float64{
			testing.AllocsPerRun(20, func() {
				reset()
				dataflow.SolveForward(rpo, dataflow.MeetAny, in, out, transfer)
			}),
			testing.AllocsPerRun(20, func() {
				reset()
				dataflow.SolveBackward(rpo, dataflow.MeetAny, out, in, transfer)
			}),
			testing.AllocsPerRun(20, func() { dataflow.ComputeLiveness(f, rpo) }),
		}
	}
	got, want := allocs(large), allocs(small)
	for i, name := range []string{"SolveForward", "SolveBackward", "ComputeLiveness"} {
		if got[i] != want[i] {
			t.Errorf("%s: %v allocations on %d blocks, %v on %d", name, got[i], len(large.Blocks), want[i], len(small.Blocks))
		}
	}
}
