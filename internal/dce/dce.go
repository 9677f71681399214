// Package dce implements dead-code elimination, part of the paper's
// baseline sequence (§4.1).  An instruction is dead when it has no side
// effects and its result is not live immediately after it; the pass
// iterates liveness and deletion to a fixed point so whole dead chains
// disappear.
package dce

import (
	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Stats reports the number of instructions removed.
type Stats struct {
	Removed int
}

// Run deletes dead instructions from f in place, drawing liveness from
// the given cache.  Deletions go through Block.RemoveAt, which bumps the
// code generation, so each round's liveness is fresh — and the final
// (no-op) round leaves valid liveness in the cache for the next pass.
func Run(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	live := dataflow.NewBitSet(f.NumRegs()) // refilled per block; DCE adds no register
	for {
		lv := ac.Liveness()
		removed := 0
		for _, b := range f.Blocks {
			live.CopyFrom(lv.LiveOut.Row(b.ID))
			// Walk backwards; collect deletions by index.
			var dead []int
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instr(i)
				removable := in.Dst != ir.NoReg &&
					!live.Has(int(in.Dst)) &&
					(in.Op.Pure() || in.Op.IsLoad() || in.Op == ir.OpCopy)
				if removable {
					dead = append(dead, i)
					continue
				}
				if in.Dst != ir.NoReg {
					live.Clear(int(in.Dst))
				}
				if in.Op != ir.OpPhi { // φ uses belong to predecessors
					for _, a := range in.Args {
						live.Set(int(a))
					}
				}
			}
			for _, i := range dead {
				b.RemoveAt(i)
			}
			removed += len(dead)
		}
		st.Removed += removed
		if removed == 0 {
			return st
		}
	}
}
