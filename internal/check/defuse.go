package check

import (
	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/ir"

	"fmt"
)

// defsite records one definition of a register.
type defsite struct {
	block *ir.Block
	index int
}

// DefUse proves that every register use is dominated by a definition.
//
// Registers with a single definition are checked directly against the
// dominator tree: the defining instruction must precede the use in the
// same block or its block must dominate the use's block.  Registers
// with several definitions (legal outside SSA form) fall back to a
// definite-assignment dataflow — the intersection over all paths of the
// registers assigned so far — which is the path-sensitive statement of
// the same property.  φ operands are checked along their predecessor
// edge: the operand must be defined at the end of the corresponding
// predecessor, not at the φ itself.
//
// With strictSSA set, multiple definitions of one register are
// themselves errors (the single-assignment invariant); use it on code
// that claims to be in SSA form, e.g. directly after ssa.Build.
//
// Warnings flag φ pathologies that interpret fine but indicate a pass
// bug: operands on edges from unreachable predecessors ("dead φ
// operands") and φ-nodes whose result is never used.
//
// The reverse postorder and dominator tree come from the given
// analysis cache.  The checker never mutates f, so the cache stays
// valid for subsequent passes.
func DefUse(f *ir.Func, strictSSA bool, ac *analysis.Cache) []Diagnostic {
	var diags []Diagnostic
	errf := func(b *ir.Block, i int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "defuse", Severity: SevError,
			Func: f.Name, Block: b.Name, Instr: i,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	warnf := func(b *ir.Block, i int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "defuse", Severity: SevWarning,
			Func: f.Name, Block: b.Name, Instr: i,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	if len(f.Blocks) == 0 {
		return diags
	}
	nr := f.NumRegs()
	inRange := func(r ir.Reg) bool { return r != ir.NoReg && int(r) < nr }

	reachable := make([]bool, len(f.Blocks))
	rpo := ac.RPO()
	for _, b := range rpo {
		reachable[b.ID] = true
	}
	dom := ac.DomTree()

	// Collect definition sites (enter's operands define the parameters).
	defs := make([][]defsite, nr)
	used := make([]bool, nr)
	for _, b := range f.Blocks {
		if !reachable[b.ID] {
			continue
		}
		for i, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpEnter {
				for _, p := range in.Args {
					if inRange(p) {
						defs[p] = append(defs[p], defsite{b, i})
					}
				}
				continue
			}
			for _, a := range in.Args {
				if inRange(a) {
					used[a] = true
				}
			}
			if inRange(in.Dst) {
				defs[in.Dst] = append(defs[in.Dst], defsite{b, i})
			}
		}
	}

	if strictSSA {
		for r := ir.Reg(1); int(r) < nr; r++ {
			if len(defs[r]) > 1 {
				d := defs[r][1]
				errf(d.block, d.index, "register %s defined %d times in SSA-form function", r, len(defs[r]))
			}
		}
	}

	// Definite assignment for multi-definition registers: outs[b] is the
	// set of registers assigned on every path from entry through b, and
	// ins[b] the set assigned on every path into b — an all-paths
	// forward problem with transfer in ∪ defs(b).  The entry has no
	// predecessors (ir.Verify), so its in-set is ∅.  SolveForward wants
	// every predecessor in rpo, but rows of unreachable blocks stay
	// seeded full, and intersecting with a full row is the identity: an
	// unreachable predecessor is skipped exactly as if it were absent.
	ins := dataflow.NewBitMatrix(len(f.Blocks), nr)
	outs := dataflow.NewBitMatrix(len(f.Blocks), nr)
	outs.SetAll()
	dataflow.SolveForward(rpo, dataflow.MeetAll, ins, outs, func(b *ir.Block, in, dst dataflow.BitSet) {
		dst.CopyFrom(in)
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpEnter {
				for _, p := range in.Args {
					if inRange(p) {
						dst.Set(int(p))
					}
				}
			} else if inRange(in.Dst) {
				dst.Set(int(in.Dst))
			}
		}
	})

	// checkUse reports whether register r is surely defined when read at
	// (b, i); for φ operands the reading point is the end of pred.
	checkUse := func(r ir.Reg, b *ir.Block, i int, pred *ir.Block, live dataflow.BitSet) {
		if !inRange(r) {
			return // ir.Verify reports out-of-range operands
		}
		switch len(defs[r]) {
		case 0:
			errf(b, i, "use of undefined register %s", r)
		case 1:
			d := defs[r][0]
			var ok bool
			if pred != nil {
				ok = d.block == pred || dom.Dominates(d.block, pred)
			} else {
				ok = (d.block == b && d.index < i) || (d.block != b && dom.Dominates(d.block, b))
			}
			if !ok {
				where := b.Name
				if pred != nil {
					where = "edge " + pred.Name + "->" + b.Name
				}
				errf(b, i, "use of %s at %s not dominated by its definition in %s", r, where, d.block.Name)
			}
		default:
			if pred != nil {
				if !outs.Row(pred.ID).Has(int(r)) {
					errf(b, i, "φ operand %s may be undefined on edge %s->%s", r, pred.Name, b.Name)
				}
			} else if !live.Has(int(r)) {
				errf(b, i, "use of %s not dominated by any definition", r)
			}
		}
	}

	live := dataflow.NewBitSet(nr)
	for _, b := range rpo {
		live.CopyFrom(ins.Row(b.ID))
		for i, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			switch in.Op {
			case ir.OpEnter:
				for _, p := range in.Args {
					if inRange(p) {
						live.Set(int(p))
					}
				}
				continue
			case ir.OpPhi:
				for ai, a := range in.Args {
					if ai >= len(b.Preds) {
						break // arity mismatch is ir.Verify's report
					}
					p := b.Preds[ai]
					if !reachable[p.ID] {
						warnf(b, i, "dead φ operand %s from unreachable predecessor %s", a, p.Name)
						continue
					}
					checkUse(a, b, i, p, dataflow.BitSet{})
				}
				if inRange(in.Dst) && !used[in.Dst] {
					warnf(b, i, "dead φ: result %s is never used", in.Dst)
				}
			default:
				for _, a := range in.Args {
					checkUse(a, b, i, nil, live)
				}
			}
			if inRange(in.Dst) {
				live.Set(int(in.Dst))
			}
		}
	}
	return diags
}
