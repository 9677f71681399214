// Package pre implements partial redundancy elimination with three
// placement strategies behind one fixpoint driver:
//
//   - Drechsler (drechsler.go) is the paper's own choice (§4: "Our
//     implementation of PRE uses a variation described by Drechsler
//     and Stadel"): Morel–Renvoise redundancy placed on edges by the
//     unidirectional lazy-code-motion equations, with the §2.2 naming
//     discipline (Mode A) deleting redundant computations outright.
//   - LCM (lcm.go) is Knoop–Rüthing–Steffen lazy code motion in its
//     block-granularity form: computationally optimal like Drechsler
//     and additionally lifetime-optimal, with isolated insertions
//     pruned.
//   - Lospre (lospre.go, mincut.go) is speculative PRE after Krause:
//     one minimum s-t cut per expression over a frequency-weighted
//     placement graph, allowed to insert on paths that never computed
//     the expression when that is cheaper and the operation cannot
//     trap.
//
// Every strategy works on the same footing: unreachable blocks are
// removed and critical edges split, so every insertion point is a block
// boundary; the expression universe and its local properties come from
// dataflow.BuildUniverse; anticipability (down-safety) comes from
// Universe.Anticipability.  A round inserts h ← e computations and then
// walks every block once, rewriting each original occurrence of a
// placed expression (see rewrite).  A single round moves each
// expression at most one level — the computation of an operand blocks
// upward exposure of its parents — so RunToFixpoint repeats rounds
// until one finds nothing more, which is what hoists whole invariant
// chains out of loops, as in the paper's Figure 9.  None of the
// strategies lengthens an execution path the original code did not
// already take through the expression, except lospre's deliberate,
// trap-free speculation.
package pre

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Stats reports what PRE did to a function: one round, or summed over
// the rounds of RunToFixpoint.
type Stats struct {
	Exprs         int // size of the expression universe (last round)
	Inserted      int // h ← e computations inserted
	Deleted       int // Mode A computations removed outright
	Replaced      int // occurrences turned into a copy from the temporary
	Rewritten     int // occurrences turned into h ← e; t ← copy h
	ModeA         int // expressions handled under the naming discipline (last round)
	Transformed   int // lospre: expressions whose cut beat the status quo
	Fallbacks     int // lospre: expressions skipped because the cut budget tripped
	EdgesSplit    int // critical edges split
	RemovedBlocks int // unreachable blocks dropped before analysis
	Rounds        int // rounds run by RunToFixpoint
}

// Changed reports whether the run made optimization progress — the
// fixpoint driver's termination condition.
func (s Stats) Changed() bool { return s.Inserted+s.Deleted+s.Replaced+s.Rewritten > 0 }

// Mutated reports whether the run modified the function at all,
// including CFG surgery (edge splits, unreachable-block removal) that
// Changed does not count as progress.
func (s Stats) Mutated() bool {
	return s.Changed() || s.EdgesSplit+s.RemovedBlocks > 0
}

// add folds one round's stats into a running total.
func (s *Stats) add(r Stats) {
	s.Exprs = r.Exprs
	s.Inserted += r.Inserted
	s.Deleted += r.Deleted
	s.Replaced += r.Replaced
	s.Rewritten += r.Rewritten
	s.ModeA = r.ModeA
	s.Transformed += r.Transformed
	s.Fallbacks += r.Fallbacks
	s.EdgesSplit += r.EdgesSplit
	s.RemovedBlocks += r.RemovedBlocks
	s.Rounds++
}

// A Strategy is one placement algorithm: the function that runs one
// round of it, and the most rounds RunToFixpoint may spend.
type Strategy struct {
	round     func(f *ir.Func, ac *analysis.Cache) Stats
	maxRounds int
}

// The placement strategies.  Each Drechsler or LCM round can hoist one
// more level of an expression chain, so their bound is the deepest
// expression tree worth chasing; lospre's strict-improvement guard
// lowers the modeled cost every round, so its bound is a backstop.
var (
	Drechsler = Strategy{drechslerRound, 32}
	LCM       = Strategy{lcmRound, 32}
	Lospre    = Strategy{lospreRound, 8}
)

// RunToFixpoint applies the strategy's rounds to f, drawing CFG
// analyses from ac, until a round makes no progress or the round bound
// is reached.  It checks ctx before every round and stops once ctx is
// done, leaving the function valid; the caller reports ctx.Err().
func RunToFixpoint(ctx context.Context, f *ir.Func, ac *analysis.Cache, s Strategy) Stats {
	var total Stats
	for total.Rounds < s.maxRounds && ctx.Err() == nil {
		st := s.round(f, ac)
		total.add(st)
		if !st.Changed() {
			break
		}
	}
	return total
}

// round is the state one strategy round shares with the helpers that
// apply its placement.
type round struct {
	f        *ir.Func
	u        *dataflow.Universe
	st       Stats
	temp     []ir.Reg // per expression: the register carrying its value
	inserted map[*ir.Instr]bool
}

// begin opens a round on f: it removes unreachable blocks, splits
// critical edges and builds the expression universe.  The caller ends
// the round at once, returning r.st, when the universe is empty.  The
// temporaries are borrowed from ac; the caller returns them with
// ac.ReturnRegs(r.temp).
func begin(f *ir.Func, ac *analysis.Cache) *round {
	r := &round{f: f, inserted: map[*ir.Instr]bool{}}
	r.st.RemovedBlocks = ac.RemoveUnreachable()
	r.st.EdgesSplit = cfg.SplitCriticalEdges(f)
	r.u = dataflow.BuildUniverse(f)
	r.st.Exprs = r.u.NumExprs()
	r.temp = ac.BorrowRegs(r.st.Exprs)
	return r
}

// bottom is the insert position just before a block's terminator.
const bottom = -1

// insert materializes expression e into its temporary at index pos of
// b, or before b's terminator when pos is bottom.
func (r *round) insert(b *ir.Block, pos, e int) {
	in := r.u.MakeInstr(e, r.temp[e])
	r.inserted[in] = true
	if pos == bottom {
		b.Append(in)
	} else {
		b.InsertAt(pos, in)
	}
	r.st.Inserted++
}

// topPos is the first index of b after its φs and enter: the top-of-
// block insert position.
func topPos(b *ir.Block) int {
	pos := 0
	for pos < len(b.Instrs) && (b.Instr(pos).Op == ir.OpPhi || b.Instr(pos).Op == ir.OpEnter) {
		pos++
	}
	return pos
}

// An action is what rewrite does with one original occurrence of an
// expression.
type action uint8

const (
	keep    action = iota // leave the occurrence alone
	define                // leave it: it computes into the temporary itself (Mode A)
	remove                // delete it: the temporary is its destination and holds the value (Mode A)
	replace               // t ← copy h: the temporary holds the value
	compute               // h ← e; t ← copy h: compute through the temporary
)

// rewrite walks every block once, tracking in valid the expressions
// whose temporary holds their value at the current point.  start seeds
// valid at the top of each block; this round's insertions set their
// expression; decide picks the action for every original occurrence of
// an expression given whether its temporary is valid there; and
// definitions of operands (plus memory writes, for loads) clear it.
func (r *round) rewrite(start func(b *ir.Block, valid *dataflow.BitSet), decide func(e int, valid bool) action) {
	f, u := r.f, r.u
	valid := dataflow.NewBitSet(u.NumExprs())
	for _, b := range f.Blocks {
		start(b, valid)
		kept := make([]ir.InstrID, 0, len(b.Instrs))
		for _, id := range b.Instrs {
			in := f.Instr(id)
			k, isExpr := dataflow.KeyOf(in)
			e, found := u.Index[k]
			if !isExpr || !found {
				kept = append(kept, id)
				u.KillScan(valid, in.Dst, in.Op.WritesMemory())
				continue
			}
			if r.inserted[in] {
				valid.Set(e)
				kept = append(kept, id)
				continue
			}
			switch decide(e, valid.Has(e)) {
			case remove:
				r.st.Deleted++
				continue
			case define:
				valid.Set(e)
			case replace:
				kept = append(kept, f.NewCopy(in.Dst, r.temp[e]).ID())
				r.st.Replaced++
				u.KillScan(valid, in.Dst, false)
				continue
			case compute:
				kept = append(kept, u.MakeInstr(e, r.temp[e]).ID(), f.NewCopy(in.Dst, r.temp[e]).ID())
				valid.Set(e)
				r.st.Rewritten++
				u.KillScan(valid, in.Dst, false)
				continue
			}
			kept = append(kept, id)
			u.KillScan(valid, in.Dst, in.Op.WritesMemory())
		}
		b.Instrs = kept
	}
	if r.st.Changed() {
		// The kept-slice rewrites above bypass the Block helpers.
		f.MarkCodeMutated()
	}
}

// CanonicalDsts finds, for each expression, the naming-discipline
// canonical destination register, or NoReg when the conditions fail:
// all occurrences share one destination t, t has no other definitions,
// t is not an operand of the expression, and every use of t is local to
// a block that defines it first (the §5.1 rule).  Deleting an
// occurrence whose value is already in t is then always safe.  The
// returned slice is borrowed from the cache's arena; the caller returns
// it with ReturnRegs.
func CanonicalDsts(f *ir.Func, u *dataflow.Universe, ac *analysis.Cache) []ir.Reg {
	n := u.NumExprs()
	canon := ac.BorrowRegs(n)
	for i := range canon {
		canon[i] = ir.Reg(-1) // unseen
	}
	defCount := ac.BorrowInts(f.NumRegs())
	defer ac.ReturnInts(defCount)
	exprDefCount := ac.BorrowInts(n)
	defer ac.ReturnInts(exprDefCount)
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpEnter {
			for _, p := range in.Args {
				defCount[p]++
			}
			return
		}
		if in.Dst != ir.NoReg {
			defCount[in.Dst]++
		}
		if k, ok := dataflow.KeyOf(in); ok {
			if e, found := u.Index[k]; found {
				exprDefCount[e]++
				switch {
				case canon[e] == ir.Reg(-1):
					canon[e] = in.Dst
				case canon[e] != in.Dst:
					canon[e] = ir.NoReg // mixed destinations
				}
			}
		}
	})
	// Reject: other defs of t, t an operand of e, or t used non-locally.
	nonLocalUse := ac.BorrowBools(f.NumRegs())
	defer ac.ReturnBools(nonLocalUse)
	definedHere := ac.BorrowInts(f.NumRegs())
	defer ac.ReturnInts(definedHere)
	gen := 0
	for _, b := range f.Blocks {
		gen++
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op != ir.OpEnter {
				for _, a := range in.Args {
					if definedHere[a] != gen {
						nonLocalUse[a] = true
					}
				}
			}
			if in.Dst != ir.NoReg {
				definedHere[in.Dst] = gen
			}
		}
	}
	for e := 0; e < n; e++ {
		t := canon[e]
		if t == ir.Reg(-1) || t == ir.NoReg {
			canon[e] = ir.NoReg
			continue
		}
		k := u.Keys[e]
		if defCount[t] != exprDefCount[e] || k.A == t || k.B == t || nonLocalUse[t] {
			canon[e] = ir.NoReg
		}
	}
	return canon
}
