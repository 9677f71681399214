package pre

// The Drechsler strategy follows Drechsler and Stadel's simplification
// of Morel–Renvoise (the variant the paper says it uses, §4: "Their
// formulation supports edge placement for enhanced optimization and
// simplifies the data-flow equations...").  The equations are the
// unidirectional lazy-code-motion system:
//
//	ANTIN, ANTOUT and AVOUT: Universe.Anticipability and .Availability
//
//	EARLIEST(i→j) = ANTIN(j) ∩ ¬AVOUT(i) ∩ (¬TRANSP(i) ∪ ¬ANTOUT(i))
//	LATER(i→j)    = EARLIEST(i→j) ∪ (LATERIN(i) ∩ ¬ANTLOC(i))
//	LATERIN(j)    = ⋂ LATER(i→j)                   (ANTIN at entry)
//
//	INSERT(i→j) = LATER(i→j) ∩ ¬LATERIN(j)
//	DELETE(b)   = ANTLOC(b) ∩ ¬LATERIN(b)
//
// LATERIN is solved as a block problem.  Writing EARLIEST(i→j) as
// ANTIN(j) ∩ X(i), the solution satisfies LATERIN ⊆ ANTIN, and so
// LATERIN(i) ∖ ANTLOC(i) ⊆ ANTOUT(i) ⊆ ANTIN(j); hence
//
//	LATERIN(j) = ANTIN(j) ∩ ⋂ (X(i) ∪ (LATERIN(i) ∖ ANTLOC(i)))
//
// has the same greatest fixed point and is a forward all-paths problem
// over per-block out-sets.  The entry has no predecessors, so the
// classic virtual entry edge (LATERIN(entry) = ANTIN(entry)) inserts
// nothing and nothing in the entry block is ever deleted.

import (
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// drechslerRound runs one round of Drechsler–Stadel PRE on f.
func drechslerRound(r *round) {
	f, ac, u := r.f, r.ac, r.u
	n := u.NumExprs()
	rpo := ac.RPO()
	antin, antout := u.Anticipability(rpo, r.sets)
	_, avout := u.Availability(rpo, r.sets)

	// X(i) = ¬AVOUT(i) ∩ ¬(TRANSP(i) ∩ ANTOUT(i)).
	tmp := r.sets.Set(n)
	x := r.family()
	for _, b := range f.Blocks {
		xb := x.Row(b.ID)
		xb.SetAll()
		xb.Subtract(avout.Row(b.ID))
		tmp.CopyFrom(u.Transp.Row(b.ID))
		tmp.Intersect(antout.Row(b.ID))
		xb.Subtract(tmp)
	}

	// LATERIN (forward, all-paths); the solver's in-sets become LATERIN
	// once intersected with ANTIN.
	laterin, out := r.family(), r.family()
	out.SetAll()
	// laterIn computes LATERIN(b) into dst from the meet in.
	laterIn := func(b *ir.Block, in, dst dataflow.BitSet) {
		if len(b.Preds) == 0 {
			dst.CopyFrom(antin.Row(b.ID))
			return
		}
		dst.CopyFrom(in)
		dst.Intersect(antin.Row(b.ID))
	}
	dataflow.SolveForward(rpo, dataflow.MeetAll, laterin, out,
		func(b *ir.Block, in, dst dataflow.BitSet) {
			laterIn(b, in, dst)
			dst.Subtract(u.AntLoc.Row(b.ID))
			dst.Union(x.Row(b.ID))
		})
	for _, b := range f.Blocks {
		laterIn(b, laterin.Row(b.ID), laterin.Row(b.ID))
	}

	// --- INSERT / DELETE ---
	// insertOn computes INSERT(from→to) into set; it is cheap enough to
	// compute twice rather than keep per edge.
	insertOn := func(set dataflow.BitSet, from, to *ir.Block) {
		set.CopyFrom(antin.Row(to.ID))
		set.Intersect(x.Row(from.ID))
		set.UnionDiff(laterin.Row(from.ID), u.AntLoc.Row(from.ID))
		set.Subtract(laterin.Row(to.ID))
	}
	del := r.family()
	for _, b := range f.Blocks {
		del.Row(b.ID).AndNotOf(u.AntLoc.Row(b.ID), laterin.Row(b.ID))
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
	modeA := ac.BorrowBools(n)
	defer ac.ReturnBools(modeA)
	interesting := r.sets.Set(n)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			insertOn(tmp, b, s)
			interesting.Union(tmp)
		}
	}
	for _, b := range f.Blocks {
		interesting.Union(del.Row(b.ID))
	}
	canon := r.canon
	// Mode A applies to every canonically named expression, not just
	// the ones with global insert/delete sets: the same walk then also
	// removes block-local recomputations (classic PRE presentations
	// assume a local CSE ran; under the naming discipline the two
	// coincide).
	for e := 0; e < n; e++ {
		if t := canon[e]; t != ir.NoReg {
			r.temp[e] = t
			modeA[e] = true
			r.st.ModeA++
		} else if interesting.Has(e) {
			r.temp[e] = f.NewReg()
		}
	}

	// --- Perform insertions ---
	for _, from := range f.Blocks {
		for _, to := range from.Succs {
			insertOn(tmp, from, to)
			switch {
			case len(from.Succs) == 1:
				tmp.ForEach(func(e int) { r.insert(from, bottom, e) })
			case len(to.Preds) == 1:
				tmp.ForEach(func(e int) { r.insert(to, topPos(to), e) })
			case !tmp.Empty():
				// Cannot happen: critical edges were split.
				at := cfg.SplitEdge(from, to)
				r.st.EdgesSplit++
				tmp.ForEach(func(e int) { r.insert(at, bottom, e) })
			}
		}
	}

	// --- Rewrite original computations ---
	r.rewrite(func(b *ir.Block, valid dataflow.BitSet) {
		valid.CopyFrom(del.Row(b.ID))
		valid.Intersect(interesting)
	}, func(e int, valid bool) action {
		switch {
		case modeA[e] && valid:
			// Redundant under the naming discipline: the canonical
			// register already holds the value.
			return remove
		case modeA[e]:
			return define
		case !interesting.Has(e):
			return keep
		case valid:
			return replace
		}
		// Mode B first (or post-kill) computation.
		return compute
	})
}
