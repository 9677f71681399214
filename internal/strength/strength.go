// Package strength implements loop strength reduction — the second
// pass the paper reports missing (§4.1) and discusses at length in
// §5.2: "We expect that strength reduction will improve the code
// beyond the results shown in this paper.  Reassociation should let
// strength reduction introduce fewer distinct induction variables."
// It is provided as an extension so the harness can measure that
// expectation.
//
// The implementation is a deliberately simple induction-variable
// scheme on SSA (in the spirit of the classic Allen–Cocke–Kennedy
// transformation rather than full Cooper–Simpson–Vick OSR):
//
//  1. find basic induction variables — header φs of the form
//     i = φ(init, i ⊕ step) with a region-constant step;
//  2. find multiplications j = i × k (or k × i) inside the loop with a
//     region-constant k;
//  3. replace each with its own derived induction variable
//     j' = φ(init×k, j' + step×k), materializing init×k and step×k in
//     the preheader.
//
// The pass runs on SSA it builds itself and destructs afterwards, like
// the other filters.
package strength

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// Stats reports the reductions performed.
type Stats struct {
	BasicIVs int // basic induction variables found
	Reduced  int // multiplications replaced by derived IVs
}

// Run performs strength reduction on f in place, drawing CFG analyses
// (dominators, loops, liveness) from the given cache.
func Run(f *ir.Func, ac *analysis.Cache) Stats {
	ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, ac)
	st := reduce(f, ac)
	ssa.Destruct(f, ac)
	return st
}

type ivInfo struct {
	phi     *ir.Instr // i = φ(init, next)
	header  *ir.Block
	loop    *cfg.Loop
	initIdx int       // operand index of the init (preheader) input
	backIdx int       // operand index of the back-edge input
	update  *ir.Instr // next = i + step  (or step + i)
	step    ir.Reg    // region-constant step operand
}

func reduce(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	dom := ac.DomTree()
	li := ac.Loops()
	if len(li.Loops) == 0 {
		return st
	}

	defBlock := map[ir.Reg]*ir.Block{}
	defInstr := map[ir.Reg]*ir.Instr{}
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpEnter {
			for _, p := range in.Args {
				defBlock[p] = b
				defInstr[p] = in
			}
			return
		}
		if in.Dst != ir.NoReg {
			defBlock[in.Dst] = b
			defInstr[in.Dst] = in
		}
	})
	// regionConst: defined outside the loop, or a constant (a loadI
	// inside the loop has the same value every iteration and can be
	// re-materialized in the preheader).
	regionConst := func(l *cfg.Loop, r ir.Reg) bool {
		if di := defInstr[r]; di != nil && di.IsConst() {
			return true
		}
		db := defBlock[r]
		return db == nil || !l.Contains(db)
	}

	// Find basic IVs per loop.
	var ivs []ivInfo
	for _, l := range li.Loops {
		h := l.Header
		if len(h.Preds) != 2 {
			continue // one entry edge, one back edge — keep it simple
		}
		for _, phiID := range h.Phis() {
			phi := f.Instr(phiID)
			if len(phi.Args) != 2 {
				continue
			}
			for back := 0; back < 2; back++ {
				initIdx := 1 - back
				backPred := h.Preds[back]
				if !l.Contains(backPred) || l.Contains(h.Preds[initIdx]) {
					continue
				}
				upd := defInstr[phi.Args[back]]
				if upd == nil || upd.Op != ir.OpAdd {
					continue
				}
				var step ir.Reg
				switch {
				case upd.Args[0] == phi.Dst && regionConst(l, upd.Args[1]):
					step = upd.Args[1]
				case upd.Args[1] == phi.Dst && regionConst(l, upd.Args[0]):
					step = upd.Args[0]
				default:
					continue
				}
				ivs = append(ivs, ivInfo{
					phi: phi, header: h, loop: l,
					initIdx: initIdx, backIdx: back,
					update: upd, step: step,
				})
				st.BasicIVs++
			}
		}
	}
	if len(ivs) == 0 {
		return st
	}

	// For each IV, find reducible multiplications in its loop.
	for _, iv := range ivs {
		preheader := iv.header.Preds[iv.initIdx]
		updBlock := defBlock[iv.update.Dst]
		for _, b := range iv.loop.Blocks {
			for idx := 0; idx < len(b.Instrs); idx++ {
				in := b.Instr(idx)
				if in.Op != ir.OpMul {
					continue
				}
				var k ir.Reg
				switch {
				case in.Args[0] == iv.phi.Dst && regionConst(iv.loop, in.Args[1]):
					k = in.Args[1]
				case in.Args[1] == iv.phi.Dst && regionConst(iv.loop, in.Args[0]):
					k = in.Args[0]
				default:
					continue
				}
				// Operands must be usable at the preheader's end:
				// either their definitions dominate it, or they are
				// constants we can re-materialize there.
				kPre, ok1 := materializeAt(f, dom, defBlock, defInstr, k, preheader)
				stepPre, ok2 := materializeAt(f, dom, defBlock, defInstr, iv.step, preheader)
				if !ok1 || !ok2 {
					continue
				}

				// Materialize init×k and step×k in the preheader.
				initMul := f.NewReg()
				preheader.Append(f.NewInstr(ir.OpMul, initMul, iv.phi.Args[iv.initIdx], kPre))
				stepMul := f.NewReg()
				preheader.Append(f.NewInstr(ir.OpMul, stepMul, stepPre, kPre))

				jphi := f.NewReg()
				jnext := f.NewReg()

				// Replace the multiplication with a copy of j' first:
				// the insertions below may shift slice indices.
				b.Instrs[idx] = f.NewCopy(in.Dst, jphi).ID()
				st.Reduced++

				// j' = φ(init×k, j'next) at the header.
				phiArgs := make([]ir.Reg, 2)
				phiArgs[iv.initIdx] = initMul
				phiArgs[iv.backIdx] = jnext
				nphi := f.NewPhi(jphi, 2)
				copy(nphi.Args, phiArgs)
				iv.header.InsertAt(len(iv.header.Phis()), nphi)
				// j'next = j' + step×k, placed right after the IV update.
				for ui, uinID := range updBlock.Instrs {
					uin := updBlock.Fn.Instr(uinID)
					if uin == iv.update {
						updBlock.InsertAt(ui+1, f.NewInstr(ir.OpAdd, jnext, jphi, stepMul))
						break
					}
				}

				// Register the new defs for subsequent queries.
				defBlock[initMul] = preheader
				defBlock[stepMul] = preheader
				defBlock[jphi] = iv.header
				defBlock[jnext] = updBlock
			}
		}
	}
	return st
}

// materializeAt returns a register holding r's value at the end of
// block b: r itself when its definition dominates b, or a freshly
// re-materialized constant appended to b.
func materializeAt(f *ir.Func, dom *cfg.DomTree, defBlock map[ir.Reg]*ir.Block, defInstr map[ir.Reg]*ir.Instr, r ir.Reg, b *ir.Block) (ir.Reg, bool) {
	db := defBlock[r]
	if db == nil || dom.Dominates(db, b) {
		return r, true
	}
	if di := defInstr[r]; di != nil && di.IsConst() {
		nr := f.NewReg()
		cp := f.CloneInstr(di, f)
		cp.Dst = nr
		b.Append(cp)
		defBlock[nr] = b
		defInstr[nr] = cp
		return nr, true
	}
	return ir.NoReg, false
}
