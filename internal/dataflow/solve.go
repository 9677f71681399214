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

// meetInto overwrites dst with the meet of row b.ID of sets over the
// given neighbor blocks.  No neighbors yields ∅ under either operator.
func meetInto(dst BitSet, neighbors []*ir.Block, sets BitMatrix, meet Meet) {
	if len(neighbors) == 0 {
		dst.ClearAll()
		return
	}
	if meet == MeetAll {
		dst.SetAll()
		for _, nb := range neighbors {
			dst.Intersect(sets.Row(nb.ID))
		}
		return
	}
	dst.ClearAll()
	for _, nb := range neighbors {
		dst.Union(sets.Row(nb.ID))
	}
}

// worklist tracks which blocks of one solve still need a visit.  A
// block not in the reverse postorder is never pending, so an edge to
// an unreachable block cannot keep the solve going.
type worklist struct {
	state   []uint8 // by block ID: notListed, idle or pending
	pending int
}

const (
	notListed uint8 = iota
	idle
	pending
)

// newWorklist returns a worklist over nb block IDs with every block of
// rpo pending.
func newWorklist(nb int, rpo []*ir.Block) *worklist {
	w := &worklist{state: make([]uint8, nb), pending: len(rpo)}
	for _, b := range rpo {
		w.state[b.ID] = pending
	}
	return w
}

// add makes the listed blocks among bs pending.
func (w *worklist) add(bs []*ir.Block) {
	for _, b := range bs {
		if w.state[b.ID] == idle {
			w.state[b.ID] = pending
			w.pending++
		}
	}
}

// take reports whether b was pending and makes it idle.
func (w *worklist) take(b *ir.Block) bool {
	if w.state[b.ID] != pending {
		return false
	}
	w.state[b.ID] = idle
	w.pending--
	return true
}

// SolveForward iterates a forward bitvector problem to fixpoint over
// the reachable blocks with a worklist.  in and out hold one row per
// block, indexed by block ID; the caller seeds out according to the
// fixpoint it wants (full for MeetAll, empty for MeetAny).  A visit
// meets the predecessors' out-sets into in's row b.ID, then calls
// transfer to compute the block's new out-set into dst — one vector
// shared by every visit, which the callback must fully overwrite.
// Every block is visited once, in reverse postorder, and again only
// after a predecessor's out-set changed; sweeps in reverse postorder
// repeat until no block is pending.  For these monotone problems any such chaotic iteration
// from the same seeds reaches the same fixpoint as round-robin
// iteration.  All blocks named by Preds edges must be present in rpo
// (run analysis.Cache.RemoveUnreachable first).
func SolveForward(rpo []*ir.Block, meet Meet, in, out BitMatrix, transfer func(b *ir.Block, in, dst BitSet)) {
	if len(rpo) == 0 {
		return
	}
	dst := NewBitSet(out.Len())
	w := newWorklist(out.Rows(), rpo)
	for w.pending > 0 {
		for _, b := range rpo {
			if !w.take(b) {
				continue
			}
			bin, bout := in.Row(b.ID), out.Row(b.ID)
			meetInto(bin, b.Preds, out, meet)
			transfer(b, bin, dst)
			if !dst.Equal(bout) {
				bout.CopyFrom(dst)
				w.add(b.Succs)
			}
		}
	}
}

// SolveBackward is SolveForward's mirror: its sweeps run in postorder
// (reverse RPO), a visit meets the successors' in-sets into out's row
// b.ID and calls transfer to compute the block's new in-set into dst, and a
// changed in-set makes the predecessors pending.  The caller seeds in
// according to the fixpoint it wants.
func SolveBackward(rpo []*ir.Block, meet Meet, out, in BitMatrix, transfer func(b *ir.Block, out, dst BitSet)) {
	if len(rpo) == 0 {
		return
	}
	dst := NewBitSet(in.Len())
	w := newWorklist(in.Rows(), rpo)
	for w.pending > 0 {
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			if !w.take(b) {
				continue
			}
			bout, bin := out.Row(b.ID), in.Row(b.ID)
			meetInto(bout, b.Succs, in, meet)
			transfer(b, bout, dst)
			if !dst.Equal(bin) {
				bin.CopyFrom(dst)
				w.add(b.Preds)
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
// block-ID-indexed matrices, drawn from sets.
func (u *Universe) Anticipability(rpo []*ir.Block, sets *FamilyStore) (antin, antout BitMatrix) {
	nb, n := len(u.Fn.Blocks), u.NumExprs()
	antin, antout = sets.Family(nb, n), sets.Family(nb, n)
	antin.SetAll()
	SolveBackward(rpo, MeetAll, antout, antin, func(b *ir.Block, out, dst BitSet) {
		dst.CopyFrom(out)
		dst.Intersect(u.Transp.Row(b.ID))
		dst.Union(u.AntLoc.Row(b.ID))
	})
	return antin, antout
}

// Availability solves the forward all-paths problem
//
//	AVIN(b)  = ⋂ AVOUT(pred)                       (∅ at entry)
//	AVOUT(b) = COMP(b) ∪ (AVIN(b) ∩ TRANSP(b))
//
// over the blocks of rpo (see SolveForward) and returns both
// block-ID-indexed matrices, drawn from sets.
func (u *Universe) Availability(rpo []*ir.Block, sets *FamilyStore) (avin, avout BitMatrix) {
	nb, n := len(u.Fn.Blocks), u.NumExprs()
	avin, avout = sets.Family(nb, n), sets.Family(nb, n)
	avout.SetAll()
	SolveForward(rpo, MeetAll, avin, avout, func(b *ir.Block, in, dst BitSet) {
		dst.CopyFrom(in)
		dst.Intersect(u.Transp.Row(b.ID))
		dst.Union(u.Comp.Row(b.ID))
	})
	return avin, avout
}
