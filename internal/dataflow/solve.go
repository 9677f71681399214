package dataflow

import "repro/internal/ir"

// This file hosts the generic unidirectional bitvector solvers every
// bitvector problem of the redundancy-elimination passes (internal/pre's
// three placement strategies, internal/cse's AVAIL scheme) is posed on,
// and the two classical problems they share, anticipability and
// availability.

// Meet selects the confluence operator of a dataflow problem.
type Meet int

const (
	// MeetAll intersects the neighboring solutions: an all-paths
	// ("must") property solved to the greatest fixed point.  Callers
	// seed the solution vectors full (except where boundary conditions
	// say otherwise); blocks with no CFG neighbors on the meet side get
	// the empty set, the conventional boundary for ANTOUT at exits and
	// AVIN at the entry.
	MeetAll Meet = iota
	// MeetAny unions the neighboring solutions: an any-path ("may")
	// property solved to the least fixed point.  Callers seed the
	// solution vectors empty.
	MeetAny
)

// meetInto overwrites dst with the meet of sets[b.ID] over the given
// neighbor blocks.  No neighbors yields ∅ under either operator.
func meetInto(dst *BitSet, neighbors []*ir.Block, sets []*BitSet, meet Meet) {
	if len(neighbors) == 0 {
		dst.ClearAll()
		return
	}
	if meet == MeetAll {
		dst.SetAll()
		for _, nb := range neighbors {
			dst.Intersect(sets[nb.ID])
		}
		return
	}
	dst.ClearAll()
	for _, nb := range neighbors {
		dst.Union(sets[nb.ID])
	}
}

// SolveForward iterates a forward bitvector problem to fixpoint over
// the reachable blocks in reverse postorder.  in and out are
// block-ID-indexed vectors (as produced by one NewBitSetFamily call
// per direction); the caller seeds out according to the fixpoint it
// wants (full for MeetAll, empty for MeetAny).  Each step meets the
// predecessors' out-sets into in[b.ID], then calls transfer to compute
// the block's new out-set into dst — one vector shared by every step,
// which the callback must fully overwrite.  Iteration stops when no
// out-set changes.  All blocks named by Preds edges must be present in rpo
// (run analysis.Cache.RemoveUnreachable first).
func SolveForward(rpo []*ir.Block, meet Meet, in, out []*BitSet, transfer func(b *ir.Block, in, dst *BitSet)) {
	if len(rpo) == 0 {
		return
	}
	dst := NewBitSet(out[rpo[0].ID].Len())
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			meetInto(in[b.ID], b.Preds, out, meet)
			transfer(b, in[b.ID], dst)
			if !dst.Equal(out[b.ID]) {
				out[b.ID].CopyFrom(dst)
				changed = true
			}
		}
	}
}

// SolveBackward is SolveForward's mirror: it iterates in postorder
// (reverse RPO), meets the successors' in-sets into out[b.ID], and
// calls transfer to compute the block's new in-set into dst.  The
// caller seeds in according to the fixpoint it wants.
func SolveBackward(rpo []*ir.Block, meet Meet, out, in []*BitSet, transfer func(b *ir.Block, out, dst *BitSet)) {
	if len(rpo) == 0 {
		return
	}
	dst := NewBitSet(in[rpo[0].ID].Len())
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			meetInto(out[b.ID], b.Succs, in, meet)
			transfer(b, out[b.ID], dst)
			if !dst.Equal(in[b.ID]) {
				in[b.ID].CopyFrom(dst)
				changed = true
			}
		}
	}
}

// Anticipability solves the backward all-paths problem
//
//	ANTIN(b)  = ANTLOC(b) ∪ (ANTOUT(b) ∩ TRANSP(b))
//	ANTOUT(b) = ⋂ ANTIN(succ)                      (∅ at exits)
//
// over the blocks of rpo (see SolveForward) and returns both
// block-ID-indexed families.
func (u *Universe) Anticipability(rpo []*ir.Block) (antin, antout []*BitSet) {
	nb, n := len(u.Fn.Blocks), u.NumExprs()
	antin, antout = NewBitSetFamily(nb, n), NewBitSetFamily(nb, n)
	for _, set := range antin {
		set.SetAll()
	}
	SolveBackward(rpo, MeetAll, antout, antin, func(b *ir.Block, out, dst *BitSet) {
		dst.CopyFrom(out)
		dst.Intersect(u.Transp[b.ID])
		dst.Union(u.AntLoc[b.ID])
	})
	return antin, antout
}

// Availability solves the forward all-paths problem
//
//	AVIN(b)  = ⋂ AVOUT(pred)                       (∅ at entry)
//	AVOUT(b) = COMP(b) ∪ (AVIN(b) ∩ TRANSP(b))
//
// over the blocks of rpo (see SolveForward) and returns both
// block-ID-indexed families.
func (u *Universe) Availability(rpo []*ir.Block) (avin, avout []*BitSet) {
	nb, n := len(u.Fn.Blocks), u.NumExprs()
	avin, avout = NewBitSetFamily(nb, n), NewBitSetFamily(nb, n)
	for _, set := range avout {
		set.SetAll()
	}
	SolveForward(rpo, MeetAll, avin, avout, func(b *ir.Block, in, dst *BitSet) {
		dst.CopyFrom(in)
		dst.Intersect(u.Transp[b.ID])
		dst.Union(u.Comp[b.ID])
	})
	return avin, avout
}
