package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Liveness holds per-block live-in/live-out register sets.  Registers
// are the elements; the sets have capacity fn.NumRegs().
type Liveness struct {
	LiveIn  []*BitSet // indexed by block ID
	LiveOut []*BitSet
}

// ComputeLiveness solves backward liveness over the reachable blocks,
// visiting them in postorder: rpo is f's reverse postorder, as
// analysis.Cache.RPO gives it.  φ-nodes are treated the standard way: a
// φ's operands are live out of the corresponding predecessor, not live
// into the φ's own block.
func ComputeLiveness(f *ir.Func, rpo []*ir.Block) *Liveness {
	livenessBuilds.Add(1)
	n := len(f.Blocks)
	nr := f.NumRegs()
	lv := &Liveness{
		LiveIn:  make([]*BitSet, n),
		LiveOut: make([]*BitSet, n),
	}
	// All 4n per-block sets come from two bulk allocations (the BitSet
	// headers and one flat word array) instead of 4n separate
	// NewBitSet calls.  LiveIn/LiveOut escape to the caller inside
	// those bulk arrays; use/def occupy the tail of the same arrays
	// and die with this frame.
	w := (nr + 63) / 64
	hdrs := make([]BitSet, 4*n)
	words := make([]uint64, 4*n*w)
	for i := range hdrs {
		hdrs[i] = BitSet{words: words[i*w : (i+1)*w], n: nr}
	}
	use := hdrs[2*n : 3*n] // upward-exposed non-φ uses
	def := hdrs[3*n:]      // registers defined in block

	for _, b := range f.Blocks {
		lv.LiveIn[b.ID] = &hdrs[2*b.ID]
		lv.LiveOut[b.ID] = &hdrs[2*b.ID+1]
	}
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := b.Instr(ii)
			if in.Op == ir.OpPhi {
				// φ defs happen "on entry"; uses are charged to the
				// predecessors during the fixed-point loop below.
				if in.Dst != ir.NoReg {
					def[b.ID].Set(int(in.Dst))
				}
				continue
			}
			for _, a := range in.Args {
				if !def[b.ID].Has(int(a)) {
					use[b.ID].Set(int(a))
				}
			}
			if in.Dst != ir.NoReg {
				def[b.ID].Set(int(in.Dst))
			}
		}
	}

	// Iterate to the least fixed point with a worklist, in postorder
	// (reverse RPO) sweeps: a block is visited again only after a
	// successor's live-in set grew.  One scratch vector serves every
	// visit.
	in := NewBitSet(nr)
	work := newWorklist(n, rpo)
	for work.pending > 0 {
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			if !work.take(b) {
				continue
			}
			out := lv.LiveOut[b.ID]
			for _, s := range b.Succs {
				out.Union(lv.LiveIn[s.ID])
				// φ operands flowing along this edge.
				pi := s.PredIndex(b)
				for _, pid := range s.Phis() {
					if phi := f.Instr(pid); pi < len(phi.Args) {
						out.Set(int(phi.Args[pi]))
					}
				}
			}
			in.CopyFrom(out)
			in.Subtract(&def[b.ID])
			in.Union(&use[b.ID])
			if !in.Equal(lv.LiveIn[b.ID]) {
				lv.LiveIn[b.ID].CopyFrom(in)
				work.add(b.Preds)
			}
		}
	}
	return lv
}

// LiveAcrossBlocks returns the set of registers that are live into some
// block, i.e. whose values cross a basic-block boundary.  The paper's
// §5.1 correctness rule requires that no *expression name* be in this
// set when PRE runs.
func LiveAcrossBlocks(f *ir.Func) *BitSet {
	lv := ComputeLiveness(f, cfg.ReversePostorder(f))
	s := NewBitSet(f.NumRegs())
	for _, b := range f.Blocks {
		s.Union(lv.LiveIn[b.ID])
		// φ operands cross the edge even if not live-in.
		for _, pid := range b.Phis() {
			for _, a := range f.Instr(pid).Args {
				s.Set(int(a))
			}
		}
	}
	return s
}
