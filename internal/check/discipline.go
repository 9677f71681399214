package check

import (
	"fmt"

	"repro/internal/ir"
)

// Discipline lints the paper's naming contract (§2.2, §5.1), the
// precondition lexical PRE needs and the property gvn renaming,
// reassociation's forward propagation, and core.Normalize are supposed
// to establish:
//
//   - only copies, φ-nodes, calls and enter may target variable names;
//     the target of any other computation is an expression name;
//   - expression names must not be live across basic-block boundaries —
//     every use of an expression name must follow a definition of it in
//     the same block.
//
// A register whose definitions mix both kinds ("both expression and
// variable name") is reported as a warning: normalize deliberately
// treats such registers as variables, so downstream passes tolerate
// them, but a renaming pass that produces new ones is suspect.  A
// cross-block use of a pure expression name is an error — that is
// exactly the regression this lint exists to catch in gvn/reassoc.
//
// Raw front-end output fails this lint by design; run it only on code
// that claims the discipline (after normalize, or after reassociation's
// forward propagation plus gvn renaming).
func Discipline(f *ir.Func) []Diagnostic {
	var diags []Diagnostic
	nr := f.NumRegs()
	inRange := func(r ir.Reg) bool { return r != ir.NoReg && int(r) < nr }

	// The same classification core.Normalize establishes the
	// discipline with.
	exprDef, varDef := f.NameKinds()

	for r := ir.Reg(1); int(r) < nr; r++ {
		if exprDef[r] && varDef[r] {
			diags = append(diags, Diagnostic{
				Analyzer: "discipline", Severity: SevWarning, Func: f.Name, Instr: -1,
				Msg: fmt.Sprintf("register %s is both an expression name and a variable name", r),
			})
		}
	}

	// Cross-block uses of pure expression names.  A use is local when a
	// definition of the register appears earlier in the same block; a φ
	// operand reads at the end of its predecessor, so it is local only
	// to a definition in that predecessor.
	exprOnly := func(r ir.Reg) bool { return inRange(r) && exprDef[r] && !varDef[r] }
	local := make([]int, nr) // generation of the last local definition
	gen := 0
	for _, b := range f.Blocks {
		gen++
		for i, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			switch in.Op {
			case ir.OpEnter:
				for _, p := range in.Args {
					if inRange(p) {
						local[p] = gen
					}
				}
				continue
			case ir.OpPhi:
				for ai, a := range in.Args {
					if !exprOnly(a) || ai >= len(b.Preds) {
						continue
					}
					diags = append(diags, Diagnostic{
						Analyzer: "discipline", Severity: SevError,
						Func: f.Name, Block: b.Name, Instr: i,
						Msg: fmt.Sprintf("expression name %s flows into φ along edge %s->%s", a, b.Preds[ai].Name, b.Name),
					})
				}
			default:
				for _, a := range in.Args {
					if exprOnly(a) && local[a] != gen {
						diags = append(diags, Diagnostic{
							Analyzer: "discipline", Severity: SevError,
							Func: f.Name, Block: b.Name, Instr: i,
							Msg: fmt.Sprintf("expression name %s is live across a block boundary (used in %s without a local definition)", a, b.Name),
						})
					}
				}
			}
			if inRange(in.Dst) {
				local[in.Dst] = gen
			}
		}
	}
	return diags
}
