package check

import (
	"context"
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
)

// ValidateOptions configure translation validation.
type ValidateOptions struct {
	// Ctx, when non-nil, bounds the differential interpretation: the
	// interpreter polls it, and ValidatePass returns early (with the
	// diagnostics gathered so far, and none blaming the timeout on the
	// pass) once it is cancelled.  Callers that care about the
	// distinction check Ctx.Err() after the call.
	Ctx context.Context
	// FloatTol is the relative tolerance for floating-point results.
	// Zero means exact: the pass claims bit-identical float behavior
	// (true for everything except the reassociating passes, which
	// legitimately change rounding).  When zero, the final global
	// memory images are compared byte for byte as well.
	FloatTol float64
}

// ValidatePass checks that a pass application preserved semantics:
// before is the program as it entered the pass, after the program the
// pass produced.  Validation is differential interpretation — every
// function is observed on generated inputs in before and judged in
// after by Disagree — preceded by a value-numbering-based fast path:
// functions congruent to their originals modulo register names are
// semantically unchanged, and if no function changed the expensive
// interpretation is skipped entirely.
//
// Inputs whose reference run traps or exceeds the step budget are
// skipped (see Observe).  Every returned diagnostic is an error naming
// the offending pass.
func ValidatePass(before, after *ir.Program, pass string, opt ValidateOptions) []Diagnostic {
	var diags []Diagnostic
	errf := func(fn string, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "validate", Severity: SevError,
			Func: fn, Instr: -1, Pass: pass,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	changed := false
	for _, bf := range before.Funcs {
		af := after.Func(bf.Name)
		if af == nil {
			errf(bf.Name, "pass removed the function")
			continue
		}
		if !vnEqual(bf, af) {
			changed = true
		}
	}
	if !changed || len(diags) > 0 {
		return diags
	}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	kinds := inferParamKinds(before)
	for _, bf := range before.Funcs {
		for _, in := range genInputs(kinds[bf.Name], 3) {
			ref, ok := Observe(ctx, before, bf.Name, in)
			if !ok {
				continue
			}
			msg := Disagree(ctx, after, bf.Name, ref, opt.FloatTol)
			if ctx.Err() != nil {
				// Don't let a deadline masquerade as a miscompile.
				return diags
			}
			if msg != "" {
				errf(bf.Name, "%s", msg)
			}
		}
	}
	return diags
}

// vnEqual reports whether two functions are congruent modulo register
// names: same block structure and, position by position, the same
// operations with operands that received the same value numbers.  A
// register's value number is its order of first appearance in a fixed
// walk, so any pure renaming (the only thing gvn's rewrite or a no-op
// application changes) maps to the same numbering.
func vnEqual(f, g *ir.Func) bool {
	if len(f.Blocks) != len(g.Blocks) {
		return false
	}
	fn := map[ir.Reg]int{}
	gn := map[ir.Reg]int{}
	number := func(m map[ir.Reg]int, r ir.Reg) int {
		if r == ir.NoReg {
			return -1
		}
		n, ok := m[r]
		if !ok {
			n = len(m)
			m[r] = n
		}
		return n
	}
	for bi, fb := range f.Blocks {
		gb := g.Blocks[bi]
		if len(fb.Instrs) != len(gb.Instrs) || len(fb.Succs) != len(gb.Succs) {
			return false
		}
		for si, fs := range fb.Succs {
			if fs.ID != gb.Succs[si].ID {
				return false
			}
		}
		for ii, fiID := range fb.Instrs {
			fi := fb.Fn.Instr(fiID)
			gi := gb.Instr(ii)
			if fi.Op != gi.Op || fi.Imm != gi.Imm || fi.Sym != gi.Sym ||
				math.Float64bits(fi.FImm) != math.Float64bits(gi.FImm) ||
				len(fi.Args) != len(gi.Args) {
				return false
			}
			for ai, fa := range fi.Args {
				if number(fn, fa) != number(gn, gi.Args[ai]) {
					return false
				}
			}
			if number(fn, fi.Dst) != number(gn, gi.Dst) {
				return false
			}
		}
	}
	return true
}

// Register kinds for input generation.
type kind uint8

const (
	kindUnknown kind = iota
	kindInt
	kindFloat
)

// inferParamKinds infers, for every function, whether each parameter
// holds an integer or a float, by propagating the operand and result
// types the opcodes dictate through copies, φ-nodes, call argument
// bindings and returns.  Parameters whose kind cannot be determined
// default to integer.
func inferParamKinds(p *ir.Program) map[string][]kind {
	// Node space: one node per register per function, plus one "return
	// value" node per function.
	offset := map[string]int{}
	total := 0
	for _, f := range p.Funcs {
		offset[f.Name] = total
		total += f.NumRegs() + 1
	}
	retNode := func(f *ir.Func) int { return offset[f.Name] + f.NumRegs() }
	node := func(f *ir.Func, r ir.Reg) int {
		if r == ir.NoReg || int(r) >= f.NumRegs() {
			return -1
		}
		return offset[f.Name] + int(r)
	}

	kinds := make([]kind, total)
	var edges [][2]int // equality constraints
	set := func(n int, k kind) {
		if n >= 0 && kinds[n] == kindUnknown {
			kinds[n] = k
		}
	}
	equate := func(a, b int) {
		if a >= 0 && b >= 0 {
			edges = append(edges, [2]int{a, b})
		}
	}

	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, inID := range b.Instrs {
				in := b.Fn.Instr(inID)
				switch in.Op {
				case ir.OpEnter:
					// Parameter kinds come from their uses.
				case ir.OpCopy:
					if len(in.Args) == 1 {
						equate(node(f, in.Dst), node(f, in.Args[0]))
					}
				case ir.OpPhi:
					for _, a := range in.Args {
						equate(node(f, in.Dst), node(f, a))
					}
				case ir.OpCall:
					if callee := p.Func(f.SymName(in.Sym)); callee != nil {
						for i, a := range in.Args {
							if i < len(callee.Params) {
								equate(node(f, a), node(callee, callee.Params[i]))
							}
						}
						equate(node(f, in.Dst), retNode(callee))
					}
				case ir.OpRet:
					if len(in.Args) == 1 {
						equate(node(f, in.Args[0]), retNode(f))
					}
				default:
					for i, a := range in.Args {
						switch argKind(in.Op, i) {
						case kindInt:
							set(node(f, a), kindInt)
						case kindFloat:
							set(node(f, a), kindFloat)
						}
					}
					if in.Dst != ir.NoReg {
						if in.Op.Float() {
							set(node(f, in.Dst), kindFloat)
						} else {
							set(node(f, in.Dst), kindInt)
						}
					}
				}
			}
		}
	}

	// Propagate known kinds across the equality edges to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			a, b := e[0], e[1]
			switch {
			case kinds[a] != kindUnknown && kinds[b] == kindUnknown:
				kinds[b] = kinds[a]
				changed = true
			case kinds[b] != kindUnknown && kinds[a] == kindUnknown:
				kinds[a] = kinds[b]
				changed = true
			}
		}
	}

	out := map[string][]kind{}
	for _, f := range p.Funcs {
		ks := make([]kind, len(f.Params))
		for i, pr := range f.Params {
			k := kindInt
			if n := node(f, pr); n >= 0 && kinds[n] == kindFloat {
				k = kindFloat
			}
			ks[i] = k
		}
		out[f.Name] = ks
	}
	return out
}

// argKind returns the kind an opcode demands of operand i, or
// kindUnknown for polymorphic positions.
func argKind(op ir.Op, i int) kind {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpNeg,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpShl, ir.OpShr,
		ir.OpMin, ir.OpMax, ir.OpAbs, ir.OpI2F, ir.OpCBr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpLoadW, ir.OpLoadD, ir.OpLoadS:
		return kindInt
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg,
		ir.OpFMin, ir.OpFMax, ir.OpSqrt, ir.OpFAbs, ir.OpF2I,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE:
		return kindFloat
	case ir.OpStoreW:
		return kindInt // value and address are both integers
	case ir.OpStoreD, ir.OpStoreS:
		if i == 0 {
			return kindFloat // stored value
		}
		return kindInt // address
	}
	return kindUnknown
}

// ProgramInputs returns up to n deterministic argument tuples for the
// named function, with each parameter's int/float kind inferred from
// its uses across the whole program (the same inference translation
// validation uses).  Differential harnesses call this so that their
// inputs and the checker's inputs agree on typing and never provoke
// spurious int/float traps.  It returns nil if the function is absent.
func ProgramInputs(p *ir.Program, fn string, n int) [][]interp.Value {
	f := p.Func(fn)
	if f == nil {
		return nil
	}
	return genInputs(inferParamKinds(p)[fn], n)
}

// genInputs builds up to n deterministic argument tuples for a function
// with the given parameter kinds.  The integer values are chosen to be
// small and 8-aligned-friendly so that parameters used as sizes keep
// loops short and parameters used as addresses stay within the global
// segment on at least some tuples.
func genInputs(kinds []kind, n int) [][]interp.Value {
	mk := func(iv func(i int) int64, fv func(i int) float64) []interp.Value {
		args := make([]interp.Value, len(kinds))
		for i, k := range kinds {
			if k == kindFloat {
				args[i] = interp.FloatVal(fv(i))
			} else {
				args[i] = interp.IntVal(iv(i))
			}
		}
		return args
	}
	tuples := [][]interp.Value{
		mk(func(i int) int64 { return int64(i + 1) },
			func(i int) float64 { return 1.5 + float64(i) }),
		mk(func(i int) int64 { return int64(8 * i) },
			func(i int) float64 { return 0.25*float64(i) - 0.5 }),
		mk(func(i int) int64 { return int64(2 - i) },
			func(i int) float64 { return -2.25 * float64(i+1) }),
	}
	if n < len(tuples) {
		tuples = tuples[:n]
	}
	return tuples
}
