package dataflow

import "repro/internal/ir"

// Liveness holds per-block live-in/live-out register sets.  Registers
// are the elements; the sets have capacity fn.NumRegs().
type Liveness struct {
	LiveIn  BitMatrix // one row per block, indexed by block ID
	LiveOut BitMatrix
}

// ComputeLiveness solves backward liveness over the reachable blocks,
// visiting them in postorder: rpo is f's reverse postorder, as
// analysis.Cache.RPO gives it.  φ-nodes are treated the standard way: a
// φ's operands are live out of the corresponding predecessor, not live
// into the φ's own block.
func ComputeLiveness(f *ir.Func, rpo []*ir.Block) *Liveness {
	n := len(f.Blocks)
	nr := f.NumRegs()
	// The returned sets share one matrix; the per-block use/def sets
	// and the scratch vector share another, which dies with this frame.
	live := NewBitMatrix(2*n, nr)
	lv := &Liveness{LiveIn: live.Sub(0, n), LiveOut: live.Sub(n, 2*n)}
	scratch := NewBitMatrix(2*n+1, nr)
	use := scratch.Sub(0, n)   // upward-exposed non-φ uses
	def := scratch.Sub(n, 2*n) // registers defined in block
	in := scratch.Row(2 * n)

	for _, b := range f.Blocks {
		use, def := use.Row(b.ID), def.Row(b.ID)
		for ii := range b.Instrs {
			in := b.Instr(ii)
			if in.Op == ir.OpPhi {
				// φ defs happen "on entry"; uses are charged to the
				// predecessors during the fixed-point loop below.
				if in.Dst != ir.NoReg {
					def.Set(int(in.Dst))
				}
				continue
			}
			for _, a := range in.Args {
				if !def.Has(int(a)) {
					use.Set(int(a))
				}
			}
			if in.Dst != ir.NoReg {
				def.Set(int(in.Dst))
			}
		}
	}

	// Iterate to the least fixed point with a worklist, in postorder
	// (reverse RPO) sweeps: a block is visited again only after a
	// successor's live-in set grew.  One scratch vector serves every
	// visit.
	work := newWorklist(n, rpo)
	for work.pending > 0 {
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			if !work.take(b) {
				continue
			}
			out := lv.LiveOut.Row(b.ID)
			for _, s := range b.Succs {
				out.Union(lv.LiveIn.Row(s.ID))
				// φ operands flowing along this edge.
				pi := s.PredIndex(b)
				for _, pid := range s.Phis() {
					if phi := f.Instr(pid); pi < len(phi.Args) {
						out.Set(int(phi.Args[pi]))
					}
				}
			}
			in.CopyFrom(out)
			in.Subtract(def.Row(b.ID))
			in.Union(use.Row(b.ID))
			if bin := lv.LiveIn.Row(b.ID); !in.Equal(bin) {
				bin.CopyFrom(in)
				work.add(b.Preds)
			}
		}
	}
	return lv
}
