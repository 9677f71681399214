// Package reassoc implements the paper's global reassociation (§3.1):
//
//  1. compute a rank for every expression,
//  2. propagate expressions forward to their uses,
//  3. reassociate expressions, sorting their operands by rank
//     (optionally distributing multiplication over addition).
//
// The pass runs on pruned SSA (built internally, with copies folded
// into φ-nodes), removes φ-nodes by inserting copies in predecessor
// blocks, and rebuilds every "essential" operand — φ-copy sources,
// branch conditions, store values and addresses, load addresses, call
// arguments and returned values — as a freshly emitted expression tree
// whose associative operations are flattened and sorted so the
// low-ranked (loop-invariant, constant) operands combine first.  That
// shape is what lets a later PRE pass hoist the maximum number of
// subexpressions the maximum distance.
package reassoc

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// Ranks holds the paper's §3.1 rank function: rank 0 for constants,
// the defining block's rank for φ-results, parameters, loads and
// call-modified values, and max-of-operands for everything else.
// Block ranks follow a reverse-postorder traversal (first block rank 1).
type Ranks struct {
	ByReg   []int // indexed by register; -1 when unknown
	ByBlock []int // indexed by block ID; rank of the block itself
}

// Of returns the rank of r, or a conservatively high rank when r was
// created after ranking (such registers never act as sort keys in
// practice).
func (rk *Ranks) Of(r ir.Reg) int {
	if int(r) < len(rk.ByReg) && rk.ByReg[r] >= 0 {
		return rk.ByReg[r]
	}
	return 1 << 30
}

// ComputeRanks ranks every register of an SSA-form function.  The
// function must be in SSA form so that every operand is ranked before
// it is referenced (the paper: "Since the code is in SSA form, each
// operand will have one definition point and will have been ranked
// before it is referenced").  The reverse postorder comes from the
// given analysis cache.
func ComputeRanks(f *ir.Func, ac *analysis.Cache) *Ranks {
	rpo := ac.RPO()
	rk := &Ranks{
		ByReg:   make([]int, f.NumRegs()),
		ByBlock: make([]int, len(f.Blocks)),
	}
	for i := range rk.ByReg {
		rk.ByReg[i] = -1
	}
	for i, b := range rpo {
		rk.ByBlock[b.ID] = i + 1 // the first block visited is rank 1
	}
	for _, b := range rpo {
		blockRank := rk.ByBlock[b.ID]
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			switch in.Op {
			case ir.OpEnter:
				for _, p := range in.Args {
					rk.ByReg[p] = blockRank
				}
			case ir.OpPhi, ir.OpCall, ir.OpLoadW, ir.OpLoadD, ir.OpLoadS:
				// Rule 2: φ-results, call results and loads take the
				// block's rank.
				if in.Dst != ir.NoReg {
					rk.ByReg[in.Dst] = blockRank
				}
			case ir.OpLoadI, ir.OpLoadF:
				// Rule 1: constants have rank zero.
				rk.ByReg[in.Dst] = 0
			default:
				if in.Dst == ir.NoReg {
					continue
				}
				// Rule 3: max of the operand ranks.
				r := 0
				for _, a := range in.Args {
					if ar := rk.Of(a); ar > r && ar < 1<<30 {
						r = ar
					} else if ar == 1<<30 {
						// Operand not ranked (possible only in non-SSA
						// input); fall back to the block rank.
						r = blockRank
						break
					}
				}
				rk.ByReg[in.Dst] = r
			}
		}
	}
	return rk
}
