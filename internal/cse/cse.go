// Package cse implements the two weaker redundancy-elimination schemes
// of the paper's §5.3, for comparison against PRE:
//
//  1. Dominator-based removal (Alpern–Wegman–Zadeck): "If a value x is
//     computed at two points, p and q, and p dominates q, then the
//     computation at q is redundant and may be deleted."
//  2. Classic global common-subexpression elimination over AVAIL sets:
//     "If x is available on every path reaching p, then any
//     computation of x at p is redundant and may be deleted."
//
// These methods form a hierarchy: dominator-CSE removes a subset of
// what AVAIL-CSE removes, which removes a subset of what PRE removes
// (PRE also converts partial redundancies).  The §5.3 bench and test
// demonstrate the containment.
//
// Both transformations use the same naming-discipline deletion as PRE
// Mode A (pre.CanonicalDsts): an expression is only removed when its
// occurrences share one canonical destination with no other
// definitions and no non-local uses, so deleting the instruction leaves
// every reader correct.
package cse

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/pre"
)

// Stats reports removals.
type Stats struct {
	Removed       int
	RemovedBlocks int // unreachable blocks dropped before analysis
}

// RunDominator performs dominator-based redundancy elimination: a
// computation is deleted when a lexically identical computation
// strictly dominates it with no intervening kill.  CFG analyses come
// from the given cache.
func RunDominator(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	st.RemovedBlocks = ac.RemoveUnreachable()
	regIndex := ac.BorrowInts(f.NumRegs())
	defer ac.ReturnInts(regIndex)
	u := dataflow.BuildUniverse(f, regIndex)
	canon := pre.CanonicalDsts(f, u, ac)
	defer ac.ReturnRegs(canon)
	dom := ac.DomTree()
	n := u.NumExprs()

	// available[e] is true while a computation of e dominates the
	// current walk position with operands unmodified since.
	available := dataflow.NewBitSet(n)

	var walk func(b *ir.Block, avail dataflow.BitSet)
	walk = func(b *ir.Block, avail dataflow.BitSet) {
		local := avail.Copy()
		kept := b.Instrs[:0]
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if e := u.Expr(in); e >= 0 && canon[e] != ir.NoReg {
				if local.Has(e) {
					st.Removed++
					continue // dominated by an identical computation
				}
				local.Set(e)
			}
			kept = append(kept, inID)
			u.KillScan(local, in.Dst, in.Op.WritesMemory())
		}
		b.Instrs = kept
		for _, c := range dom.Children(b) {
			// Availability at a child is the state at the END of b
			// only when kills between are accounted; since the child
			// is dominated by b, everything available at b's end that
			// is transparent on all paths b→child... the classic AWZ
			// scheme conservatively passes the end-of-block state and
			// relies on kills being visible in the dominator walk.
			// Expressions killed on some path around the child are
			// nevertheless recomputed there and re-established; to stay
			// sound we clear expressions not transparent everywhere in
			// between — conservatively approximated by requiring
			// transparency in the child itself before reuse, which the
			// in-block kill scan enforces as the child is entered.
			walk(c, pruneNonTransparentPath(u, dom, b, c, local))
		}
	}
	walk(f.Entry(), available)
	if st.Removed > 0 {
		// The kept-slice rewrites bypass the Block helpers.
		f.MarkCodeMutated()
	}
	return st
}

// pruneNonTransparentPath conservatively clears expressions that might
// be killed on some path from the end of b to child.  Any block that
// can lie on such a path (reachable from b without passing through
// child... approximated as: any block not dominated by child and not
// equal to b that is a CFG ancestor of child) could kill.  We use a
// simple sound approximation: keep e only if every block other than
// those dominated by the child is transparent for e, whenever child
// has multiple predecessors; when child's only predecessor is b, the
// state passes through unchanged.
func pruneNonTransparentPath(u *dataflow.Universe, dom *cfg.DomTree, b, child *ir.Block, avail dataflow.BitSet) dataflow.BitSet {
	out := avail.Copy()
	if len(child.Preds) == 1 && child.Preds[0] == b {
		return out
	}
	// Conservative: clear anything not transparent in some block that
	// is not dominated by child (a potential intervening block).
	for _, blk := range child.Fn.Blocks {
		if blk == child || dom.Dominates(child, blk) {
			continue
		}
		out.Intersect(u.Transp.Row(blk.ID))
	}
	return out
}

// RunAvail performs classic global CSE over available-expression sets:
// a computation of e is removed when e ∈ AVIN of its block and no kill
// precedes it locally.  CFG analyses come from the given cache.
func RunAvail(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	st.RemovedBlocks = ac.RemoveUnreachable()
	regIndex := ac.BorrowInts(f.NumRegs())
	defer ac.ReturnInts(regIndex)
	u := dataflow.BuildUniverse(f, regIndex)
	canon := pre.CanonicalDsts(f, u, ac)
	defer ac.ReturnRegs(canon)
	avin, _ := u.Availability(ac.RPO(), nil)

	for _, b := range f.Blocks {
		avail := avin.Row(b.ID)
		kept := b.Instrs[:0]
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if e := u.Expr(in); e >= 0 && canon[e] != ir.NoReg {
				if avail.Has(e) {
					st.Removed++
					continue
				}
				avail.Set(e)
			}
			kept = append(kept, inID)
			u.KillScan(avail, in.Dst, in.Op.WritesMemory())
		}
		b.Instrs = kept
	}
	if st.Removed > 0 {
		// The kept-slice rewrites bypass the Block helpers.
		f.MarkCodeMutated()
	}
	return st
}
