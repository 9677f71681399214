package pre

// The LCM strategy is lazy code motion, the Knoop–Rüthing–Steffen
// formulation of partial redundancy elimination.  Where Drechsler–Stadel
// places insertions on edges, it uses the block-granularity restatement
// (Dragon Book §9.5): four unidirectional bitvector problems over the
// expression universe, with critical edges split first so block
// boundaries are expressive enough to stand in for edges.
//
//	ANTIN(b)    = ANTLOC(b) ∪ (ANTOUT(b) ∩ TRANSP(b))     backward ∩, ∅ at exits
//	AVOUT*(b)   = (ANTIN(b) ∪ AVIN*(b)) ∩ TRANSP(b)       forward ∩, ∅ into entry
//	EARLIEST(b) = ANTIN(b) ∖ AVIN*(b)
//	POUT(b)     = (EARLIEST(b) ∪ PIN(b)) ∖ ANTLOC(b)      forward ∩, ∅ into entry
//	LATEST(b)   = (EARLIEST∪PIN)(b) ∩ (ANTLOC(b) ∪ ¬⋂ₛ(EARLIEST∪PIN)(s))
//	USEDOUT(b)  = ⋃ₛ (ANTLOC ∪ USEDOUT)(s) ∖ LATEST(s)    backward ∪, ∅ at exits
//
// Down-safety (anticipability) bounds how early a computation may
// move; AVOUT* is availability under the fiction that every
// down-safe point computes, making EARLIEST the earliest down-safe
// frontier; postponability then slides each insertion as far down as
// it can go without passing a use, which is what makes the result
// lifetime-optimal; USEDOUT prunes isolated insertions that no later
// use would consume.  Because LATEST ⊆ EARLIEST ∪ PIN ⊆ ANTIN, the
// backend never inserts a computation on a path that did not already
// compute it (the down-safety guarantee; TestLCMDownSafety pins it).
//
// The transformation inserts h ← e at the top of every block with
// e ∈ LATEST ∩ USEDOUT and rewrites upward-exposed occurrences to
// copies from h wherever e ∈ ANTLOC ∖ (LATEST ∖ USEDOUT).  Unlike
// Drechsler there is no Mode A naming discipline: rewrites always go
// through a fresh temporary, and the downstream copy-coalescing passes
// are trusted to clean up.

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// lcmRound runs one round of lazy code motion on f.
func lcmRound(r *round) {
	f, u := r.f, r.u
	n := u.NumExprs()
	rpo := r.ac.RPO()

	tmp := r.sets.Set(n)

	// Down-safety: anticipated expressions.
	antin, _ := u.Anticipability(rpo, r.sets)

	// Availability under the earliest-placement fiction (forward,
	// all-paths): a down-safe entry point counts as a computation.
	avin, avout := r.family(), r.family()
	avout.SetAll()
	dataflow.SolveForward(rpo, dataflow.MeetAll, avin, avout,
		func(b *ir.Block, in, dst dataflow.BitSet) {
			dst.CopyFrom(in)
			dst.Union(antin.Row(b.ID))
			dst.Intersect(u.Transp.Row(b.ID))
		})

	// The earliest down-safe frontier.
	earliest := r.family()
	for _, b := range f.Blocks {
		earliest.Row(b.ID).AndNotOf(antin.Row(b.ID), avin.Row(b.ID))
	}

	// Postponability (forward, all-paths): slide insertions down until
	// a use is about to be passed.
	pin, pout := r.family(), r.family()
	pout.SetAll()
	dataflow.SolveForward(rpo, dataflow.MeetAll, pin, pout,
		func(b *ir.Block, in, dst dataflow.BitSet) {
			dst.CopyFrom(in)
			dst.Union(earliest.Row(b.ID))
			dst.Subtract(u.AntLoc.Row(b.ID))
		})

	// frontier = EARLIEST ∪ PIN: the points still allowed to hold the
	// insertion.  LATEST keeps the ones that cannot slide any further:
	// the block uses e itself, or some successor has left the frontier.
	frontier, latest := r.family(), r.family()
	for _, b := range f.Blocks {
		fr := frontier.Row(b.ID)
		fr.CopyFrom(earliest.Row(b.ID))
		fr.Union(pin.Row(b.ID))
	}
	for _, b := range f.Blocks {
		tmp.SetAll() // ⋂ over no successors is ⊤: exits keep ANTLOC only
		for _, s := range b.Succs {
			tmp.Intersect(frontier.Row(s.ID))
		}
		set := latest.Row(b.ID)
		set.CopyFrom(frontier.Row(b.ID))
		set.Intersect(u.AntLoc.Row(b.ID))
		set.UnionDiff(frontier.Row(b.ID), tmp)
	}

	// Isolation pruning (backward, any-path): is the temporary used on
	// some path after the block?
	uin, uout := r.family(), r.family()
	dataflow.SolveBackward(rpo, dataflow.MeetAny, uout, uin,
		func(b *ir.Block, out, dst dataflow.BitSet) {
			dst.CopyFrom(out)
			dst.Union(u.AntLoc.Row(b.ID))
			dst.Subtract(latest.Row(b.ID))
		})

	// Insert and replace decisions per block.  An expression whose only
	// latest point is isolated (LATEST ∖ USEDOUT) keeps its original
	// occurrence and gets no temp traffic at all.
	insertHere, replaceHere := r.family(), r.family()
	interesting := r.sets.Set(n)
	for _, b := range f.Blocks {
		ins := insertHere.Row(b.ID)
		ins.CopyFrom(latest.Row(b.ID))
		ins.Intersect(uout.Row(b.ID))
		interesting.Union(ins)
		tmp.AndNotOf(latest.Row(b.ID), uout.Row(b.ID))
		replaceHere.Row(b.ID).AndNotOf(u.AntLoc.Row(b.ID), tmp)
	}
	if interesting.Empty() {
		return
	}

	interesting.ForEach(func(e int) { r.temp[e] = f.NewReg() })

	// Perform insertions at block tops, after any φs and the enter.
	for _, b := range f.Blocks {
		pos := topPos(b)
		insertHere.Row(b.ID).ForEach(func(e int) {
			r.insert(b, pos, e)
			pos++
		})
	}

	// Rewrite upward-exposed occurrences into copies from the temp.
	// The valid vector starts from the block's replace set and decays
	// at kills, so occurrences past the first kill stay untouched (they
	// are not upward-exposed and the equations made no promise about
	// them — any redundancy there is re-exposed to the next round).
	r.rewrite(func(b *ir.Block, valid dataflow.BitSet) {
		valid.CopyFrom(replaceHere.Row(b.ID))
		valid.Intersect(interesting)
	}, func(e int, valid bool) action {
		if valid {
			return replace
		}
		return keep
	})
}
