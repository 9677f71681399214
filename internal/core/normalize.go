// Package core assembles the paper's optimization pipelines.  It
// provides the pass abstraction, the four optimization levels of
// Table 1 (baseline / partial / reassociation / distribution), the
// §5.1 naming normalization, and helpers the tools, benchmarks and
// public API share.
package core

import (
	"repro/internal/ir"
)

// NormalizeStats reports the work of the naming normalization.
type NormalizeStats struct {
	CopiesInserted int
	UsesRewritten  int
}

// Changed reports whether the run modified the function.
func (s NormalizeStats) Changed() bool { return s.CopiesInserted+s.UsesRewritten > 0 }

// Normalize enforces the naming discipline PRE requires (paper §2.2 and
// §5.1): expression names — targets of non-copy computations — must
// not be live across basic-block boundaries, and operands of
// expressions should be variable names.  For every expression-name
// definition t the pass inserts "copy t => v" immediately after it and
// rewrites all other uses of t to v.  The paper obtains the same
// property from forward propagation and notes the copy-insertion
// alternative explicitly ("insert copies to newly created variable
// names and rewrite later references").  Coalescing later removes the
// copies that were not needed.
func Normalize(f *ir.Func) NormalizeStats {
	var st NormalizeStats

	// Phase 1: classify registers.  A register is an expression name
	// only when *every* definition of it is a computation; a register
	// that is ever a copy/call/enter target is already a variable
	// (e.g. a loop counter initialized by loadI and updated through a
	// copy).
	nr := f.NumRegs()
	exprDef, varDef := f.NameKinds()
	candidate := func(r ir.Reg) bool { return exprDef[r] && !varDef[r] }

	// Phase 2: rewrite the *cross-block* uses.  A use is local when a
	// definition of the register appears earlier in the same block;
	// local uses keep the expression name — that is what lets PRE hoist
	// chained expressions the way the paper's Figure 9 does.  Only
	// cross-block uses violate the §5.1 rule and move to the shadow
	// variable.
	varFor := make([]ir.Reg, nr)
	needShadow := make([]bool, nr)
	definedHere := make([]int, nr) // generation counter per block
	gen := 0
	for _, b := range f.Blocks {
		gen++
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op != ir.OpEnter {
				for ai, a := range in.Args {
					if !candidate(a) || definedHere[a] == gen {
						continue
					}
					if varFor[a] == ir.NoReg {
						varFor[a] = f.NewReg()
						needShadow[a] = true
					}
					in.Args[ai] = varFor[a]
					st.UsesRewritten++
				}
			}
			if in.Dst != ir.NoReg {
				definedHere[in.Dst] = gen
			}
		}
	}

	// Phase 3: insert the shadow copy after every definition of each
	// register that acquired cross-block uses.
	for _, b := range f.Blocks {
		rebuilt := make([]ir.InstrID, 0, len(b.Instrs))
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			rebuilt = append(rebuilt, inID)
			if in.Dst != ir.NoReg && needShadow[in.Dst] {
				rebuilt = append(rebuilt, f.NewCopy(varFor[in.Dst], in.Dst).ID())
				st.CopiesInserted++
			}
		}
		b.Instrs = rebuilt
	}
	if st.Changed() {
		// The rebuilt-slice writes bypass the Block helpers.
		f.MarkCodeMutated()
	}
	return st
}
