// Package sccp implements global constant propagation with conditional
// branches, the first pass of the paper's baseline optimization
// sequence (§4.1, citing Wegman and Zadeck).
//
// The implementation is a dense conditional constant propagation over
// the CFG, not Wegman and Zadeck's sparse SSA algorithm: a lattice value
// (⊤ unvisited / constant / ⊥) is tracked at every block entry for each
// register some instruction names — registers are renumbered densely
// first, so the state does not grow with unused register numbers —
// blocks are processed from a LIFO worklist, and branch edges are
// marked executable only when the branch condition does not rule them
// out.  A φ meets all of its operands, ignoring which edge each comes
// from.  Instructions whose results are constant are rewritten to
// loadI/loadF; conditional branches with constant conditions become
// jumps and unreachable code is removed.
package sccp

import (
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

type value struct {
	kind int8
	i    int64
	f    float64
}

func (v value) isConst() bool { return v.kind == consti || v.kind == constf }

// meet combines two lattice values.
func meet(a, b value) value {
	switch {
	case a.kind == top:
		return b
	case b.kind == top:
		return a
	case a.kind == bottom || b.kind == bottom:
		return value{kind: bottom}
	case a.kind == b.kind && a.i == b.i && (a.kind != constf || a.f == b.f):
		return a
	case a.kind == constf && b.kind == constf && a.f == b.f:
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
	return RunWith(f, analysis.NewCache(f))
}

// RunWith is Run drawing CFG analyses from the given cache.
func RunWith(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	st.BlocksRemoved = ac.RemoveUnreachable()
	nb := len(f.Blocks)

	// Dense local numbering: every register an instruction names gets a
	// slot in 1..nr-1 (slot 0 stands for NoReg and is never read), and
	// every CFG edge b→s a slot in b's run of edgeBase.  A register no
	// instruction mentions is never read or written, so states hold
	// cells only for the registers the function touches.
	local := ac.BorrowInts(f.NumRegs())
	defer ac.ReturnInts(local)
	nr := 1
	edgeBase := make([]int, nb+1)
	for _, b := range f.Blocks {
		edgeBase[b.ID+1] = len(b.Succs)
		for _, instrID := range b.Instrs {
			instr := b.Fn.Instr(instrID)
			if instr.Dst != ir.NoReg && local[instr.Dst] == 0 {
				local[instr.Dst] = nr
				nr++
			}
			for _, a := range instr.Args {
				if local[a] == 0 {
					local[a] = nr
					nr++
				}
			}
		}
	}
	for i := range nb {
		edgeBase[i+1] += edgeBase[i]
	}

	// One backing array holds every block's entry state; out is a
	// single reused evaluation buffer (its contents are dead once the
	// successors have been met into).
	backing := make([]value, nb*nr)
	in := make([]state, nb)
	for i := range in {
		in[i] = backing[i*nr : (i+1)*nr : (i+1)*nr]
	}
	out := make(state, nr)
	edgeExec := make([]bool, edgeBase[nb])
	blockSeen := make([]bool, nb)

	work := []*ir.Block{f.Entry()}
	blockSeen[f.Entry().ID] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		copy(out, in[b.ID])
		var condVal value
		for _, instrID := range b.Instrs {
			instr := b.Fn.Instr(instrID)
			condVal = evalInstr(instr, out, local)
		}
		t := b.Terminator()
		push := func(s *ir.Block) {
			// A repeated successor shares its first occurrence's slot,
			// so the edge b→s is one flag however often s is listed.
			e := edgeBase[b.ID] + slices.Index(b.Succs, s)
			changedEdge := !edgeExec[e]
			edgeExec[e] = true
			if in[s.ID].meetInto(out) || changedEdge || !blockSeen[s.ID] {
				blockSeen[s.ID] = true
				work = append(work, s)
			}
		}
		if t != nil && t.Op == ir.OpCBr && condVal.kind == consti {
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

	// Rewrite: replace constant-valued pure instructions, then fix
	// branches whose conditions are known.
	for _, b := range f.Blocks {
		if !blockSeen[b.ID] {
			continue
		}
		copy(out, in[b.ID])
		for i, instrID := range b.Instrs {
			instr := b.Fn.Instr(instrID)
			evalInstr(instr, out, local)
			// Copies are never rewritten: re-materializing a constant
			// at each copy would undo PRE's hoisting of loadI out of
			// loops (the copy is the coalescer's business).  Constant
			// *values* still propagate through copies for folding.
			if instr.Dst == ir.NoReg || instr.IsConst() || !instr.Op.Pure() ||
				instr.Op == ir.OpPhi || instr.Op == ir.OpCopy {
				continue
			}
			v := out[local[instr.Dst]]
			if !v.isConst() {
				continue
			}
			if v.kind == consti {
				b.Instrs[i] = f.NewLoadI(instr.Dst, v.i).ID()
			} else {
				b.Instrs[i] = f.NewLoadF(instr.Dst, v.f).ID()
			}
			st.Folded++
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpCBr {
			v := out[local[t.Args[0]]]
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

// evalInstr updates the state with the effect of one instruction and
// returns the value of the register tested by a trailing cbr (i.e. the
// last defined value; callers only use it for the branch condition).
// local maps each register to its slot in s.
func evalInstr(in *ir.Instr, s state, local []int) value {
	bot := value{kind: bottom}
	set := func(v value) value {
		if in.Dst != ir.NoReg {
			s[local[in.Dst]] = v
		}
		return v
	}
	switch in.Op {
	case ir.OpEnter:
		for _, a := range in.Args {
			s[local[a]] = bot
		}
		return bot
	case ir.OpLoadI:
		return set(value{kind: consti, i: in.Imm})
	case ir.OpLoadF:
		return set(value{kind: constf, f: in.FImm})
	case ir.OpCopy:
		return set(s[local[in.Args[0]]])
	case ir.OpPhi:
		// φ inputs are per-edge; a flow-insensitive approximation
		// meets all of them (correct, though weaker than SSA SCCP).
		v := value{kind: top}
		for _, a := range in.Args {
			v = meet(v, s[local[a]])
		}
		return set(v)
	case ir.OpCall, ir.OpLoadW, ir.OpLoadD, ir.OpLoadS:
		return set(bot)
	case ir.OpCBr:
		return s[local[in.Args[0]]]
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
		args[i] = s[local[a]]
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
	cf := func(x float64) (value, bool) { return value{kind: constf, f: x}, true }
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
		return cf(a[0].f + a[1].f)
	case ir.OpFSub:
		return cf(a[0].f - a[1].f)
	case ir.OpFMul:
		return cf(a[0].f * a[1].f)
	case ir.OpFDiv:
		return cf(a[0].f / a[1].f)
	case ir.OpFNeg:
		return cf(-a[0].f)
	case ir.OpFMin:
		return cf(math.Min(a[0].f, a[1].f))
	case ir.OpFMax:
		return cf(math.Max(a[0].f, a[1].f))
	case ir.OpSqrt:
		return cf(math.Sqrt(a[0].f))
	case ir.OpFAbs:
		return cf(math.Abs(a[0].f))
	case ir.OpI2F:
		return cf(float64(a[0].i))
	case ir.OpF2I:
		return ci(int64(a[0].f))
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
		return b2i(a[0].f == a[1].f)
	case ir.OpFCmpNE:
		return b2i(a[0].f != a[1].f)
	case ir.OpFCmpLT:
		return b2i(a[0].f < a[1].f)
	case ir.OpFCmpLE:
		return b2i(a[0].f <= a[1].f)
	case ir.OpFCmpGT:
		return b2i(a[0].f > a[1].f)
	case ir.OpFCmpGE:
		return b2i(a[0].f >= a[1].f)
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
			args[i] = value{kind: constf, f: floats[i]}
		} else {
			args[i] = value{kind: consti, i: ints[i]}
		}
	}
	v, ok := foldOp(op, args)
	if !ok {
		return 0, 0, false, false
	}
	return v.i, v.f, v.kind == constf, true
}
