package difftest

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
)

// ShrinkOptions configure the reducer.
type ShrinkOptions struct {
	// Level and Kind pin the failure being reduced: a candidate is
	// accepted only if it still fails with the same kind at the same
	// level, so reduction can never wander onto a different bug.
	Level core.Level
	Kind  Kind
	// Optimize is the pipeline under test (same seam as Options).
	Optimize OptimizeFunc
	// MaxAttempts bounds total predicate evaluations (default 2500) —
	// each evaluation optimizes and interprets the candidate, so the
	// budget is what keeps reduction of a stubborn program bounded.
	MaxAttempts int
}

func (o ShrinkOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 2500
	}
	return o.MaxAttempts
}

// Shrink reduces a failing program by delta debugging.  Candidates are
// produced by four structural simplifications — dropping whole helper
// functions, dropping blocks, dropping instruction runs (at halving
// granularities, ddmin style), and replacing pure instructions with
// constant zeros — and a candidate is kept only when, printed and
// parsed back, it (a) still passes the structural verifier, (b) reads
// no register in a way check.DefUse rejects unless the program it was
// cut from already did, and (c) still reproduces the pinned failure.
// Invalid or non-reproducing candidates are discarded, so every
// intermediate state of the reduction is itself a valid, failing
// reproducer in the form an artifact re-reads, and a reduction cannot
// drift onto the symptoms of reading undefined registers, which the
// interpreter reads as zero and SCCP may fold to anything;
// cancellation simply stops early with the best so far.
//
// The second return is false when no candidate was accepted (the
// original is already minimal or the budget was spent fruitlessly).
func Shrink(ctx context.Context, prog *ir.Program, opt ShrinkOptions) (*ir.Program, bool) {
	attempts := 0
	known := defUseErrors(prog)
	// try returns the candidate in its re-read form when that form
	// reproduces, or nil.
	try := func(cand *ir.Program) *ir.Program {
		if cand == nil || attempts >= opt.maxAttempts() || ctx.Err() != nil {
			return nil
		}
		attempts++
		next := reproduces(ctx, cand, known, opt)
		if next != nil {
			known = defUseErrors(next)
		}
		return next
	}

	cur := prog
	shrunk := false
	for {
		improved := false

		// 1. Drop helper functions (biggest single win).
		for fi := len(cur.Funcs) - 1; fi >= 1; fi-- {
			if next := try(dropFunc(cur, fi)); next != nil {
				cur, improved, shrunk = next, true, true
			}
		}

		// 2. Drop whole blocks, later blocks first so indices of the
		// blocks still to be visited stay valid after an acceptance.
		for fi := range cur.Funcs {
			for bi := len(cur.Funcs[fi].Blocks) - 1; bi >= 1; bi-- {
				if next := try(dropBlock(cur, fi, bi)); next != nil {
					cur, improved, shrunk = next, true, true
				}
			}
		}

		// 3. Simplify conditional branches to one-armed jumps.
		for fi := range cur.Funcs {
			for bi := range cur.Funcs[fi].Blocks {
				for keep := 0; keep < 2; keep++ {
					if next := try(cbrToJump(cur, fi, bi, keep)); next != nil {
						cur, improved, shrunk = next, true, true
					}
				}
			}
		}

		// 4. Drop instruction runs, halving the chunk size (ddmin).
		for fi := range cur.Funcs {
			for bi := range cur.Funcs[fi].Blocks {
				n := len(cur.Funcs[fi].Blocks[bi].Instrs)
				for chunk := n/2 + 1; chunk >= 1; chunk /= 2 {
					lo := 0
					for lo < len(cur.Funcs[fi].Blocks[bi].Instrs) {
						if next := try(dropInstrs(cur, fi, bi, lo, lo+chunk)); next != nil {
							cur, improved, shrunk = next, true, true
							continue // same lo: the slice shifted left
						}
						lo += chunk
					}
				}
			}
		}

		// 5. Replace pure computations with constant zeros, severing
		// operand chains so earlier stages can delete their inputs on
		// the next round.
		for fi := range cur.Funcs {
			for bi := range cur.Funcs[fi].Blocks {
				for ii := 0; ii < len(cur.Funcs[fi].Blocks[bi].Instrs); ii++ {
					if next := try(constify(cur, fi, bi, ii)); next != nil {
						cur, improved, shrunk = next, true, true
					}
				}
			}
		}

		if !improved || attempts >= opt.maxAttempts() || ctx.Err() != nil {
			return cur, shrunk
		}
	}
}

// reproduces judges the candidate in the form its artifact would
// re-read as — printed and parsed back, which drops in-memory state
// such as the register and block-name counters — and returns that
// form when it still fails with the pinned kind at the pinned level
// and has no def-use error outside known, or nil.
func reproduces(ctx context.Context, cand *ir.Program, known map[string]bool, opt ShrinkOptions) *ir.Program {
	if ir.VerifyProgram(cand) != nil {
		return nil
	}
	back, err := ir.ParseProgramString(cand.String())
	if err != nil || ir.VerifyProgram(back) != nil {
		return nil
	}
	for key := range defUseErrors(back) {
		if !known[key] {
			return nil
		}
	}
	// The variant argument is irrelevant here: ShrinkOptions.Optimize is
	// always set and already bound to the failing pipeline variant.
	f := testLevel(ctx, back, 0, opt.Level, variant{core.GVNAWZ, core.PREDrechsler}, Options{Optimize: opt.Optimize})
	if f == nil || f.Kind != opt.Kind {
		return nil
	}
	return back
}

// defUseErrors returns the keys of p's check.DefUse errors.  A key
// names the function, the block and the message, but not the
// instruction index, which shifts as a reduction drops instructions.
func defUseErrors(p *ir.Program) map[string]bool {
	keys := map[string]bool{}
	for _, f := range p.Funcs {
		for _, d := range check.Errors(check.DefUse(f, false, analysis.NewCache(f))) {
			keys[d.Func+"/"+d.Block+": "+d.Msg] = true
		}
	}
	return keys
}

// dropFunc removes function fi (never main, index 0).  Calls to it
// would trap in the reference run, making every input unjudgable, so
// the candidate only survives when the function was genuinely
// irrelevant to the failure.
func dropFunc(p *ir.Program, fi int) *ir.Program {
	if fi <= 0 || fi >= len(p.Funcs) {
		return nil
	}
	q := p.Clone()
	q.Funcs = append(q.Funcs[:fi], q.Funcs[fi+1:]...)
	return q
}

// dropBlock removes block bi of function fi, unlinking every edge and
// repairing the terminators of its former predecessors.
func dropBlock(p *ir.Program, fi, bi int) *ir.Program {
	q := p.Clone()
	f := q.Funcs[fi]
	if bi <= 0 || bi >= len(f.Blocks) {
		return nil
	}
	b := f.Blocks[bi]
	for len(b.Preds) > 0 {
		pred := b.Preds[0]
		if pred == b {
			// Self-loop: drop the edge on the successor side only.
			ir.RemoveEdge(b, b)
			continue
		}
		ir.RemoveEdge(pred, b)
		fixTerminator(pred)
	}
	for len(b.Succs) > 0 {
		ir.RemoveEdge(b, b.Succs[0])
	}
	f.RemoveBlocks(func(x *ir.Block) bool { return x == b })
	return q
}

// fixTerminator rewrites a block's terminator to match its remaining
// successor count after edge removal: a one-armed cbr becomes a jump,
// a zero-armed branch becomes a return.
func fixTerminator(b *ir.Block) {
	t := b.Terminator()
	if t == nil {
		return
	}
	switch {
	case t.Op == ir.OpCBr && len(b.Succs) == 1:
		t.Op = ir.OpJump
		t.Args = nil
	case (t.Op == ir.OpCBr || t.Op == ir.OpJump) && len(b.Succs) == 0:
		t.Op = ir.OpRet
		t.Args = nil
	}
}

// cbrToJump keeps exactly one arm of a conditional branch.
func cbrToJump(p *ir.Program, fi, bi, keep int) *ir.Program {
	q := p.Clone()
	b := q.Funcs[fi].Blocks[bi]
	t := b.Terminator()
	if t == nil || t.Op != ir.OpCBr || len(b.Succs) != 2 || keep > 1 {
		return nil
	}
	drop := b.Succs[1-keep]
	ir.RemoveEdge(b, drop)
	t.Op = ir.OpJump
	t.Args = nil
	return q
}

// dropInstrs removes the removable instructions with index in [lo,hi)
// of the block — everything except enter, φ-nodes and the terminator.
// Returns nil when the range removes nothing.
func dropInstrs(p *ir.Program, fi, bi, lo, hi int) *ir.Program {
	q := p.Clone()
	b := q.Funcs[fi].Blocks[bi]
	kept := b.Instrs[:0]
	dropped := 0
	for i, inID := range b.Instrs {
		in := b.Fn.Instr(inID)
		removable := i >= lo && i < hi &&
			in.Op != ir.OpEnter && in.Op != ir.OpPhi && !in.Op.IsTerminator()
		if removable {
			dropped++
			continue
		}
		kept = append(kept, inID)
	}
	if dropped == 0 {
		return nil
	}
	b.Instrs = kept
	q.Funcs[fi].MarkCodeMutated()
	return q
}

// constify replaces a pure value-producing instruction with a load of
// constant zero (of the matching type), preserving the definition but
// severing its operand dependencies.
func constify(p *ir.Program, fi, bi, ii int) *ir.Program {
	q := p.Clone()
	b := q.Funcs[fi].Blocks[bi]
	if ii >= len(b.Instrs) {
		return nil
	}
	in := b.Instr(ii)
	if !in.Op.Pure() || in.Dst == ir.NoReg || in.IsConst() ||
		in.Op == ir.OpPhi || in.Op == ir.OpEnter || len(in.Args) == 0 {
		return nil
	}
	if in.Op.Float() {
		in.SetLoadF(0)
	} else {
		in.SetLoadI(0)
	}
	q.Funcs[fi].MarkCodeMutated()
	return q
}
