// Package pre implements partial redundancy elimination.
//
// The formulation follows Drechsler and Stadel's simplification of
// Morel–Renvoise (the variant the paper says it uses, §4: "Our
// implementation of PRE uses a variation described by Drechsler and
// Stadel.  Their formulation supports edge placement for enhanced
// optimization and simplifies the data-flow equations...").  The
// equations are the unidirectional lazy-code-motion system:
//
//	ANTIN(b)  = ANTLOC(b) ∪ (ANTOUT(b) ∩ TRANSP(b))
//	ANTOUT(b) = ⋂ ANTIN(succ)                      (∅ at exits)
//	AVIN(b)   = ⋂ AVOUT(pred)                      (∅ at entry)
//	AVOUT(b)  = COMP(b) ∪ (AVIN(b) ∩ TRANSP(b))
//
//	EARLIEST(i→j) = ANTIN(j) ∩ ¬AVOUT(i) ∩ (¬TRANSP(i) ∪ ¬ANTOUT(i))
//	LATER(i→j)    = EARLIEST(i→j) ∪ (LATERIN(i) ∩ ¬ANTLOC(i))
//	LATERIN(j)    = ⋂ LATER(i→j)                   (∅ at entry)
//
//	INSERT(i→j) = LATER(i→j) ∩ ¬LATERIN(j)
//	DELETE(b)   = ANTLOC(b) ∩ ¬LATERIN(b)
//
// Insertions land on edges; the pass splits critical edges first so
// every insertion point is the end of a one-successor block or the top
// of a one-predecessor block.  The transformation never lengthens an
// execution path (paper §2).
package pre

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Stats reports what one PRE run did to a function.
type Stats struct {
	Exprs         int // size of the expression universe
	Inserted      int // computations inserted on edges / block boundaries
	Rewritten     int // Mode B computations replaced by copies
	Deleted       int // Mode A computations removed outright
	ModeA         int // expressions handled under the naming discipline
	EdgesSplit    int // critical edges split
	RemovedBlocks int // unreachable blocks dropped before analysis
	Rounds        int // iterations used by RunToFixpoint
}

// Changed reports whether the run made optimization progress — the
// fixpoint driver's termination condition.
func (s Stats) Changed() bool { return s.Inserted+s.Rewritten+s.Deleted > 0 }

// Mutated reports whether the run modified the function at all,
// including CFG surgery (edge splits, unreachable-block removal) that
// Changed does not count as progress.
func (s Stats) Mutated() bool {
	return s.Changed() || s.EdgesSplit+s.RemovedBlocks > 0
}

// MaxRounds bounds RunToFixpoint; each round can hoist one more level
// of an expression chain, so the bound corresponds to the deepest
// expression tree worth chasing.
const MaxRounds = 32

// RunToFixpoint applies Run repeatedly until PRE finds nothing more.
// A single application moves each expression at most one level (the
// computation of an operand blocks upward exposure of its parents);
// iterating is what hoists whole invariant chains out of loops, as in
// the paper's Figure 9.
func RunToFixpoint(f *ir.Func) Stats {
	return RunToFixpointWith(f, analysis.NewCache(f))
}

// RunToFixpointWith is RunToFixpoint drawing CFG analyses from the
// given cache.
func RunToFixpointWith(f *ir.Func, ac *analysis.Cache) Stats {
	var total Stats
	for i := 0; i < MaxRounds; i++ {
		st := RunWith(f, ac)
		total.Inserted += st.Inserted
		total.Rewritten += st.Rewritten
		total.Deleted += st.Deleted
		total.EdgesSplit += st.EdgesSplit
		total.RemovedBlocks += st.RemovedBlocks
		total.ModeA = st.ModeA
		total.Exprs = st.Exprs
		total.Rounds++
		if !st.Changed() {
			break
		}
	}
	return total
}

// Run performs partial redundancy elimination on f and returns
// statistics.  The function is modified in place.
func Run(f *ir.Func) Stats {
	return RunWith(f, analysis.NewCache(f))
}

// RunWith is Run drawing CFG analyses from the given cache.
func RunWith(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	st.RemovedBlocks = ac.RemoveUnreachable()
	st.EdgesSplit = cfg.SplitCriticalEdges(f)
	u := dataflow.BuildUniverse(f)
	n := u.NumExprs()
	st.Exprs = n
	if n == 0 {
		return st
	}
	rpo := ac.RPO()
	nb := len(f.Blocks)

	// One vector (tmp) absorbs every per-iteration intermediate, so the
	// fixpoint loops below allocate nothing.
	tmp := dataflow.NewBitSet(n)

	// --- Anticipability (backward) ---
	antin := dataflow.NewBitSetFamily(nb, n)
	antout := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		antin[b.ID].SetAll()
	}
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := antout[b.ID]
			if len(b.Succs) == 0 {
				out.ClearAll()
			} else {
				out.SetAll()
				for _, s := range b.Succs {
					out.Intersect(antin[s.ID])
				}
			}
			tmp.CopyFrom(out)
			tmp.Intersect(u.Transp[b.ID])
			tmp.Union(u.AntLoc[b.ID])
			if !tmp.Equal(antin[b.ID]) {
				antin[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}

	// --- Availability (forward) ---
	avin := dataflow.NewBitSetFamily(nb, n)
	avout := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		if b != f.Entry() {
			avout[b.ID].SetAll()
		} else {
			avout[b.ID].CopyFrom(u.Comp[b.ID])
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			in := avin[b.ID]
			if len(b.Preds) == 0 {
				in.ClearAll()
			} else {
				in.SetAll()
				for _, p := range b.Preds {
					in.Intersect(avout[p.ID])
				}
			}
			tmp.CopyFrom(in)
			tmp.Intersect(u.Transp[b.ID])
			tmp.Union(u.Comp[b.ID])
			if !tmp.Equal(avout[b.ID]) {
				avout[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}

	// --- EARLIEST on edges (plus the virtual entry edge) ---
	type edge struct {
		from, to *ir.Block // from == nil for the virtual entry edge
	}
	edges := make([]edge, 0, nb+1)
	edges = append(edges, edge{nil, f.Entry()})
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			edges = append(edges, edge{b, s})
		}
	}
	earliest := dataflow.NewBitSetFamily(len(edges), n)
	for ei, e := range edges {
		set := earliest[ei]
		set.CopyFrom(antin[e.to.ID])
		if e.from != nil {
			set.Subtract(avout[e.from.ID])
			// ∩ (¬TRANSP(i) ∪ ¬ANTOUT(i)):
			tmp.CopyFrom(u.Transp[e.from.ID])
			tmp.Intersect(antout[e.from.ID])
			set.Subtract(tmp)
		}
	}

	// --- LATER / LATERIN (forward over edges, greatest fixed point) ---
	// The virtual entry edge gives LATERIN(entry) = EARLIEST(v→entry) =
	// ANTIN(entry), so nothing in the entry block is ever deleted and
	// no insertion lands before the procedure starts.
	laterin := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		laterin[b.ID].SetAll()
	}
	later := dataflow.NewBitSetFamily(len(edges), n)
	for ei := range edges {
		later[ei].SetAll()
	}
	recompute := dataflow.NewBitSetFamily(nb, n)
	for changed := true; changed; {
		changed = false
		for ei, e := range edges {
			tmp.CopyFrom(earliest[ei])
			if e.from != nil {
				// ∪ (LATERIN(i) ∩ ¬ANTLOC(i)), without materializing
				// the intermediate: x ∪ (y ∖ z) word-wise.
				tmp.UnionDiff(laterin[e.from.ID], u.AntLoc[e.from.ID])
			}
			if !tmp.Equal(later[ei]) {
				later[ei].CopyFrom(tmp)
				changed = true
			}
		}
		for _, b := range f.Blocks {
			recompute[b.ID].SetAll()
		}
		for ei, e := range edges {
			recompute[e.to.ID].Intersect(later[ei])
		}
		for _, b := range f.Blocks {
			if !recompute[b.ID].Equal(laterin[b.ID]) {
				laterin[b.ID].CopyFrom(recompute[b.ID])
				changed = true
			}
		}
	}

	// --- INSERT / DELETE ---
	insert := dataflow.NewBitSetFamily(len(edges), n)
	for ei, e := range edges {
		set := insert[ei]
		set.CopyFrom(later[ei])
		set.Subtract(laterin[e.to.ID])
	}
	del := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		set := del[b.ID]
		set.CopyFrom(u.AntLoc[b.ID])
		set.Subtract(laterin[b.ID])
	}

	// --- Allocate temporaries for interesting expressions ---
	//
	// Two modes, chosen per expression:
	//
	// Mode A (the paper's naming discipline, §2.2): when every
	// occurrence of e computes into the same register t, t has no other
	// definitions, t is not an operand of e, and every use of t is
	// local to a block that defines it first (the §5.1 rule), then t
	// itself is the temporary: insertions compute "t ← e" and deleted
	// occurrences are removed outright, with no compensation copies.
	// After GVN and normalization this mode almost always applies, and
	// it is what lets iterated PRE hoist chained expressions
	// (Figure 9 hoists both r6←r0+1 and r7←r6+r1).
	//
	// Mode B (fresh temporaries): otherwise a fresh register h carries
	// e; deletions become copies from h and surviving occurrences are
	// rewritten to "h ← e; t ← copy h".  This mode is safe on arbitrary
	// input code that ignores the naming discipline.
	temp := ac.BorrowRegs(n)
	defer ac.ReturnRegs(temp)
	modeA := ac.BorrowBools(n)
	defer ac.ReturnBools(modeA)
	interesting := dataflow.NewBitSet(n)
	for ei := range edges {
		interesting.Union(insert[ei])
	}
	for _, b := range f.Blocks {
		interesting.Union(del[b.ID])
	}
	canon := canonicalDsts(f, u, ac)
	defer ac.ReturnRegs(canon)
	// Mode A applies to every canonically named expression, not just
	// the ones with global insert/delete sets: the same scan then also
	// removes block-local recomputations (classic PRE presentations
	// assume a local CSE ran; under the naming discipline the two
	// coincide).
	for e := 0; e < n; e++ {
		if t := canon[e]; t != ir.NoReg {
			temp[e] = t
			modeA[e] = true
			st.ModeA++
		} else if interesting.Has(e) {
			temp[e] = f.NewReg()
		}
	}

	// --- Perform insertions ---
	insertedInstr := map[*ir.Instr]bool{}
	for ei, e := range edges {
		set := insert[ei]
		if set.Empty() {
			continue
		}
		var at *ir.Block
		var atTop bool
		switch {
		case e.from == nil:
			at, atTop = e.to, true
		case len(e.from.Succs) == 1:
			at, atTop = e.from, false
		case len(e.to.Preds) == 1:
			at, atTop = e.to, true
		default:
			// Cannot happen: critical edges were split.
			at = cfg.SplitEdge(e.from, e.to)
			atTop = false
			st.EdgesSplit++
		}
		set.ForEach(func(x int) {
			in := u.MakeInstr(x, temp[x])
			insertedInstr[in] = true
			if atTop {
				pos := 0
				for pos < len(at.Instrs) && (at.Instr(pos).Op == ir.OpPhi || at.Instr(pos).Op == ir.OpEnter) {
					pos++
				}
				at.InsertAt(pos, in)
			} else {
				at.Append(in)
			}
			st.Inserted++
		})
	}

	// --- Rewrite original computations ---
	hValid := dataflow.NewBitSet(n)
	for _, b := range f.Blocks {
		hValid.CopyFrom(del[b.ID])
		hValid.Intersect(interesting)
		kept := make([]ir.InstrID, 0, len(b.Instrs))
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if insertedInstr[in] {
				// Our own insertion: it validates the temp and is
				// never a deletion candidate.
				if k, ok := dataflow.KeyOf(in); ok {
					if e, found := u.Index[k]; found {
						hValid.Set(e)
					}
				}
				kept = append(kept, inID)
				continue
			}
			dstForKill := in.Dst
			if k, ok := dataflow.KeyOf(in); ok {
				if e, found := u.Index[k]; found && (modeA[e] || interesting.Has(e)) {
					switch {
					case modeA[e] && hValid.Has(e):
						// Redundant under the naming discipline: the
						// canonical register already holds the value.
						// Delete the computation outright.
						st.Deleted++
						continue
					case modeA[e]:
						hValid.Set(e)
					case hValid.Has(e):
						// Mode B redundant: copy from the temp.
						kept = append(kept, f.NewCopy(in.Dst, temp[e]).ID())
						st.Rewritten++
						killScan(u, hValid, n, dstForKill, false)
						continue
					default:
						// Mode B first (or post-kill) computation:
						// compute into the temp, then copy out.
						kept = append(kept, u.MakeInstr(e, temp[e]).ID(), f.NewCopy(in.Dst, temp[e]).ID())
						hValid.Set(e)
						st.Rewritten++
						killScan(u, hValid, n, dstForKill, false)
						continue
					}
				}
			}
			kept = append(kept, inID)
			killScan(u, hValid, n, dstForKill, in.Op.WritesMemory())
		}
		b.Instrs = kept
	}
	if st.Changed() {
		// The kept-slice rewrites above bypass the Block helpers.
		f.MarkCodeMutated()
	}
	return st
}

// killScan clears hValid entries invalidated by a definition of dst
// and, when memWrite is set, by a potential memory write (loads).
func killScan(u *dataflow.Universe, hValid *dataflow.BitSet, n int, dst ir.Reg, memWrite bool) {
	if memWrite {
		for e := 0; e < n; e++ {
			if u.IsLoad[e] && hValid.Has(e) {
				hValid.Clear(e)
			}
		}
	}
	if dst == ir.NoReg {
		return
	}
	for e := 0; e < n; e++ {
		if !hValid.Has(e) {
			continue
		}
		if k := u.Keys[e]; k.A == dst || k.B == dst {
			hValid.Clear(e)
		}
	}
}

// canonicalDsts finds, for each expression, the Mode A canonical
// destination register, or NoReg when the conditions fail.  The
// returned slice is borrowed from the cache's arena; the caller
// returns it with ReturnRegs.
func canonicalDsts(f *ir.Func, u *dataflow.Universe, ac *analysis.Cache) []ir.Reg {
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
