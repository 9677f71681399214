// Package sccp implements global constant propagation with conditional
// branches, the first pass of the paper's baseline optimization
// sequence (§4.1, citing Wegman and Zadeck).
//
// The implementation is a dense conditional constant propagation over
// the CFG, not Wegman and Zadeck's sparse SSA algorithm: a lattice value
// (⊤ unvisited / constant / ⊥) is tracked at every block entry, and
// branch edges are marked executable only when the branch condition
// does not rule them out.  Entry states cover only global names
// (Briggs et al., SPE 1998): registers some block reads before it
// writes them.  Block-local registers live only in the one evaluation
// buffer, so the state does not grow with temporaries.  Blocks are
// evaluated in reverse-postorder sweeps, each visiting the blocks whose
// entry state or executable in-edges changed.  Constants meet by kind
// and bit pattern, a semilattice, so on code that reads no undefined
// register the fixpoint does not depend on the visiting order.  A φ
// meets all of its operands, ignoring which edge each comes from.
// Instructions whose results are constant are rewritten to
// loadI/loadF; conditional branches with constant conditions become
// jumps and unreachable code is removed.
package sccp

import (
	"context"
	"math"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// lattice value kinds.
const (
	top    = 0 // unvisited / as-yet-unknown
	consti = 1
	constf = 2
	bottom = 3
)

// value is one 16-byte lattice cell; equal cells are the same element.
type value struct {
	kind int8
	i    int64 // an integer constant, or a float constant's bits
}

func constF(x float64) value { return value{kind: constf, i: int64(math.Float64bits(x))} }

// f returns a float constant's value.
func (v value) f() float64 { return math.Float64frombits(uint64(v.i)) }

func (v value) isConst() bool { return v.kind == consti || v.kind == constf }

// meet combines two lattice values.  Constants meet to themselves only
// when kind and bits agree: +0.0 and −0.0 differ, equal NaNs do not.
func meet(a, b value) value {
	switch {
	case a.kind == top:
		return b
	case b.kind == top:
		return a
	case a.kind == bottom || b.kind == bottom:
		return value{kind: bottom}
	case a == b:
		return a
	default:
		return value{kind: bottom}
	}
}

// state is a register→lattice map at a program point.
type state []value

// meetInto merges src into dst; reports whether dst changed.
func (s state) meetInto(src state) bool {
	changed := false
	for i := range s {
		m := meet(s[i], src[i])
		if m != s[i] {
			s[i] = m
			changed = true
		}
	}
	return changed
}

// Stats reports what constant propagation accomplished.
type Stats struct {
	Folded        int // instructions rewritten to constants
	BranchesFixed int // conditional branches made unconditional
	BlocksRemoved int
}

// Run performs conditional constant propagation on f in place.
func Run(f *ir.Func) Stats {
	return RunWith(context.Background(), f, analysis.NewCache(f))
}

// RunWith is Run drawing CFG analyses from the given cache.  It checks
// ctx before it starts and between sweeps; once ctx is done it returns
// without rewriting any instruction.
func RunWith(ctx context.Context, f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	if ctx.Err() != nil {
		return st
	}
	st.BlocksRemoved = ac.RemoveUnreachable()
	nb := len(f.Blocks)

	slot := ac.BorrowInts(f.NumRegs())
	defer ac.ReturnInts(slot)
	ng, nr := numberRegs(f, slot)

	// Every CFG edge b→s gets a slot in b's run of edgeBase.
	edgeBase := make([]int, nb+1)
	for _, b := range f.Blocks {
		edgeBase[b.ID+1] = len(b.Succs)
	}
	for i := range nb {
		edgeBase[i+1] += edgeBase[i]
	}

	// One backing array holds every block's entry state over the global
	// names; out is a single reused evaluation buffer over all names
	// (its contents are dead once the successors have been met into).
	backing := make([]value, nb*ng)
	entry := func(b *ir.Block) state { return backing[b.ID*ng : (b.ID+1)*ng : (b.ID+1)*ng] }
	out := make(state, nr)
	edgeExec := make([]bool, edgeBase[nb])
	// seen marks the blocks reached; pending those whose entry state or
	// executable in-edges changed since they were last evaluated.
	flags := make([]bool, 2*nb)
	seen, pending := flags[:nb], flags[nb:]

	seen[f.Entry().ID], pending[f.Entry().ID] = true, true
	for swept := true; swept; {
		if ctx.Err() != nil {
			return st
		}
		swept = false
		for _, b := range ac.RPO() {
			if !pending[b.ID] {
				continue
			}
			pending[b.ID], swept = false, true
			copy(out, entry(b))
			var condVal value
			for _, instrID := range b.Instrs {
				condVal = evalInstr(b.Fn.Instr(instrID), out, slot)
			}
			push := func(s *ir.Block) {
				// A repeated successor shares its first occurrence's slot,
				// so the edge b→s is one flag however often s is listed.
				e := edgeBase[b.ID] + slices.Index(b.Succs, s)
				if entry(s).meetInto(out) || !edgeExec[e] {
					edgeExec[e], seen[s.ID], pending[s.ID] = true, true, true
				}
			}
			if t := b.Terminator(); t != nil && t.Op == ir.OpCBr && condVal.kind == consti {
				if condVal.i != 0 {
					push(b.Succs[0])
				} else {
					push(b.Succs[1])
				}
			} else {
				for _, s := range b.Succs {
					push(s)
				}
			}
		}
	}

	// Rewrite: replace constant-valued pure instructions, then fix
	// branches whose conditions are known.
	for _, b := range f.Blocks {
		if !seen[b.ID] {
			continue
		}
		copy(out, entry(b))
		for i, instrID := range b.Instrs {
			instr := b.Fn.Instr(instrID)
			evalInstr(instr, out, slot)
			// Copies are never rewritten: re-materializing a constant
			// at each copy would undo PRE's hoisting of loadI out of
			// loops (the copy is the coalescer's business).  Constant
			// *values* still propagate through copies for folding.
			if instr.Dst == ir.NoReg || instr.IsConst() || !instr.Op.Pure() ||
				instr.Op == ir.OpPhi || instr.Op == ir.OpCopy {
				continue
			}
			v := out[slot[instr.Dst]]
			if !v.isConst() {
				continue
			}
			if v.kind == consti {
				b.Instrs[i] = f.NewLoadI(instr.Dst, v.i).ID()
			} else {
				b.Instrs[i] = f.NewLoadF(instr.Dst, v.f()).ID()
			}
			st.Folded++
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpCBr {
			v := out[slot[t.Args[0]]]
			if v.kind == consti {
				keep := b.Succs[0]
				drop := b.Succs[1]
				if v.i == 0 {
					keep, drop = drop, keep
				}
				ir.RemoveEdge(b, drop)
				b.Instrs[len(b.Instrs)-1] = f.NewInstr(ir.OpJump, ir.NoReg).ID()
				if len(b.Succs) != 1 || b.Succs[0] != keep {
					// RemoveEdge may have removed the wrong duplicate
					// when both targets coincide; normalize.
					for len(b.Succs) > 0 {
						ir.RemoveEdge(b, b.Succs[0])
					}
					ir.AddEdge(b, keep)
				}
				st.BranchesFixed++
			}
		}
	}
	if st.Folded > 0 {
		// Folding assigns b.Instrs[i] directly, bypassing the Block
		// helpers.
		f.MarkCodeMutated()
	}
	st.BlocksRemoved += ac.RemoveUnreachable()
	return st
}

// numberRegs gives each register an instruction names a slot (slot
// arrives zeroed; slot 0 stands for NoReg).  Global names — registers
// some block reads before it writes them, φ operands and parameters —
// take 1..ng-1; block-local names, always written before they are read,
// take ng..nr-1.  While scanning, slot[r] is -1 for a global name and
// -(b+2) for a register last written in block b.
func numberRegs(f *ir.Func, slot []int) (ng, nr int) {
	globals := 0
	for _, b := range f.Blocks {
		here := -(b.ID + 2)
		for _, instrID := range b.Instrs {
			in := b.Fn.Instr(instrID)
			for _, a := range in.Args {
				if s := slot[a]; s != -1 && (s != here || in.Op == ir.OpPhi) {
					slot[a] = -1
					globals++
				}
			}
			if in.Dst != ir.NoReg && slot[in.Dst] != -1 {
				slot[in.Dst] = here
			}
		}
	}
	ng, nr = 1, 1+globals
	number := func(r ir.Reg) {
		switch s := slot[r]; {
		case s == -1:
			slot[r] = ng
			ng++
		case s < -1:
			slot[r] = nr
			nr++
		}
	}
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		for _, a := range in.Args {
			number(a)
		}
		number(in.Dst) // slot[NoReg] stays 0
	})
	return ng, nr
}

// evalInstr updates the state with the effect of one instruction and
// returns the value of the register tested by a trailing cbr (i.e. the
// last defined value; callers only use it for the branch condition).
// slot maps each register to its cell in s.
func evalInstr(in *ir.Instr, s state, slot []int) value {
	bot := value{kind: bottom}
	set := func(v value) value {
		if in.Dst != ir.NoReg {
			s[slot[in.Dst]] = v
		}
		return v
	}
	switch in.Op {
	case ir.OpEnter:
		for _, a := range in.Args {
			s[slot[a]] = bot
		}
		return bot
	case ir.OpLoadI:
		return set(value{kind: consti, i: in.Imm})
	case ir.OpLoadF:
		return set(constF(in.FImm))
	case ir.OpCopy:
		return set(s[slot[in.Args[0]]])
	case ir.OpPhi:
		// φ inputs are per-edge; a flow-insensitive approximation
		// meets all of them (correct, though weaker than SSA SCCP).
		v := value{kind: top}
		for _, a := range in.Args {
			v = meet(v, s[slot[a]])
		}
		return set(v)
	case ir.OpCall, ir.OpLoadW, ir.OpLoadD, ir.OpLoadS:
		return set(bot)
	case ir.OpCBr:
		return s[slot[in.Args[0]]]
	case ir.OpJump, ir.OpRet, ir.OpStoreW, ir.OpStoreD, ir.OpStoreS:
		return bot
	}
	// Pure arithmetic: fold when all operands are constants.  Operand
	// values live in a fixed-size stack buffer — pure operators take at
	// most two operands, and foldOp does not retain the slice — so the
	// per-instruction evaluation allocates nothing.
	var argbuf [3]value
	args := argbuf[:len(in.Args)]
	if len(in.Args) > len(argbuf) {
		args = make([]value, len(in.Args))
	}
	allConst := true
	anyBottom := false
	for i, a := range in.Args {
		args[i] = s[slot[a]]
		if !args[i].isConst() {
			allConst = false
		}
		if args[i].kind == bottom {
			anyBottom = true
		}
	}
	if !allConst {
		if anyBottom {
			return set(bot)
		}
		return set(value{kind: top})
	}
	if v, ok := foldOp(in.Op, args); ok {
		return set(v)
	}
	return set(bot)
}

// foldOp evaluates a pure operation over constant operands.  Division
// or modulus by zero refuses to fold (the runtime will trap).
func foldOp(op ir.Op, a []value) (value, bool) {
	ci := func(x int64) (value, bool) { return value{kind: consti, i: x}, true }
	cf := func(x float64) (value, bool) { return constF(x), true }
	b2i := func(x bool) (value, bool) {
		if x {
			return ci(1)
		}
		return ci(0)
	}
	switch op {
	case ir.OpAdd:
		return ci(a[0].i + a[1].i)
	case ir.OpSub:
		return ci(a[0].i - a[1].i)
	case ir.OpMul:
		return ci(a[0].i * a[1].i)
	case ir.OpDiv:
		if a[1].i == 0 {
			return value{}, false
		}
		return ci(a[0].i / a[1].i)
	case ir.OpMod:
		if a[1].i == 0 {
			return value{}, false
		}
		return ci(a[0].i % a[1].i)
	case ir.OpNeg:
		return ci(-a[0].i)
	case ir.OpAnd:
		return ci(a[0].i & a[1].i)
	case ir.OpOr:
		return ci(a[0].i | a[1].i)
	case ir.OpXor:
		return ci(a[0].i ^ a[1].i)
	case ir.OpNot:
		return ci(^a[0].i)
	case ir.OpShl:
		return ci(a[0].i << uint64(a[1].i&63))
	case ir.OpShr:
		return ci(a[0].i >> uint64(a[1].i&63))
	case ir.OpMin:
		return ci(min(a[0].i, a[1].i))
	case ir.OpMax:
		return ci(max(a[0].i, a[1].i))
	case ir.OpAbs:
		if a[0].i < 0 {
			return ci(-a[0].i)
		}
		return ci(a[0].i)
	case ir.OpFAdd:
		return cf(a[0].f() + a[1].f())
	case ir.OpFSub:
		return cf(a[0].f() - a[1].f())
	case ir.OpFMul:
		return cf(a[0].f() * a[1].f())
	case ir.OpFDiv:
		return cf(a[0].f() / a[1].f())
	case ir.OpFNeg:
		return cf(-a[0].f())
	case ir.OpFMin:
		return cf(math.Min(a[0].f(), a[1].f()))
	case ir.OpFMax:
		return cf(math.Max(a[0].f(), a[1].f()))
	case ir.OpSqrt:
		return cf(math.Sqrt(a[0].f()))
	case ir.OpFAbs:
		return cf(math.Abs(a[0].f()))
	case ir.OpI2F:
		return cf(float64(a[0].i))
	case ir.OpF2I:
		return ci(int64(a[0].f()))
	case ir.OpCmpEQ:
		return b2i(a[0].i == a[1].i)
	case ir.OpCmpNE:
		return b2i(a[0].i != a[1].i)
	case ir.OpCmpLT:
		return b2i(a[0].i < a[1].i)
	case ir.OpCmpLE:
		return b2i(a[0].i <= a[1].i)
	case ir.OpCmpGT:
		return b2i(a[0].i > a[1].i)
	case ir.OpCmpGE:
		return b2i(a[0].i >= a[1].i)
	case ir.OpFCmpEQ:
		return b2i(a[0].f() == a[1].f())
	case ir.OpFCmpNE:
		return b2i(a[0].f() != a[1].f())
	case ir.OpFCmpLT:
		return b2i(a[0].f() < a[1].f())
	case ir.OpFCmpLE:
		return b2i(a[0].f() <= a[1].f())
	case ir.OpFCmpGT:
		return b2i(a[0].f() > a[1].f())
	case ir.OpFCmpGE:
		return b2i(a[0].f() >= a[1].f())
	}
	return value{}, false
}

// Fold exposes constant evaluation of a single pure instruction whose
// operands are the given constant lattice values; peephole and lvn call
// it once per instruction.  Pure operators take at most two operands,
// so the operands live in a fixed-size stack buffer and the call
// allocates nothing; more operands never fold.
func Fold(op ir.Op, ints []int64, floats []float64, isFloat []bool) (int64, float64, bool, bool) {
	var argbuf [2]value
	if len(ints) > len(argbuf) {
		return 0, 0, false, false
	}
	args := argbuf[:len(ints)]
	for i := range args {
		if isFloat[i] {
			args[i] = constF(floats[i])
		} else {
			args[i] = value{kind: consti, i: ints[i]}
		}
	}
	v, ok := foldOp(op, args)
	if !ok {
		return 0, 0, false, false
	}
	return v.i, v.f(), v.kind == constf, true
}
