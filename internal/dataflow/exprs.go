package dataflow

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// ExprKey identifies an expression lexically: the opcode plus its
// operand registers (and immediate, for constants).  Two instructions
// compute "the same expression" in the Morel–Renvoise sense exactly
// when their keys are equal.  Commutative operations are canonicalized
// by sorting the two operands, so "add r1, r2" and "add r2, r1" share a
// key.
type ExprKey struct {
	Op    ir.Op
	A, B  ir.Reg
	Imm   int64
	FBits uint64 // float immediate bit pattern (loadF)
}

// String renders the key for debugging.
func (k ExprKey) String() string {
	switch k.Op {
	case ir.OpLoadI:
		return fmt.Sprintf("%s %d", k.Op, k.Imm)
	case ir.OpLoadF:
		return fmt.Sprintf("%s bits(%x)", k.Op, k.FBits)
	}
	if k.B != ir.NoReg {
		return fmt.Sprintf("%s %s, %s", k.Op, k.A, k.B)
	}
	return fmt.Sprintf("%s %s", k.Op, k.A)
}

// KeyOf returns the lexical expression key of an instruction and
// whether the instruction is an expression candidate at all.  Pure
// value-producing operations and memory loads qualify; copies, φs,
// stores, calls, enter and branches do not.
func KeyOf(in *ir.Instr) (ExprKey, bool) {
	op := in.Op
	switch {
	case op == ir.OpCopy || op == ir.OpPhi || op == ir.OpEnter:
		return ExprKey{}, false
	case op.IsTerminator() || op == ir.OpCall || op.IsStore():
		return ExprKey{}, false
	}
	k := ExprKey{Op: op}
	switch op {
	case ir.OpLoadI:
		k.Imm = in.Imm
	case ir.OpLoadF:
		k.FBits = floatBits(in.FImm)
	default:
		if len(in.Args) > 0 {
			k.A = in.Args[0]
		}
		if len(in.Args) > 1 {
			k.B = in.Args[1]
		}
		if op.Commutative() && k.B != ir.NoReg && k.B < k.A {
			k.A, k.B = k.B, k.A
		}
	}
	return k, true
}

// Universe enumerates the distinct expressions of a function and the
// per-block local properties PRE needs.
type Universe struct {
	Fn    *ir.Func
	Keys  []ExprKey
	Index map[ExprKey]int
	// Float reports whether expression i produces a floating value
	// (needed to pick the right temporary copy opcode).
	Float []bool
	// IsLoad marks memory loads, which are killed by stores and calls.
	IsLoad []bool

	// Local properties, indexed [block ID] then expression.
	Transp []*BitSet // operands (and memory, for loads) untouched in block
	AntLoc []*BitSet // locally anticipatable: computed before any kill
	Comp   []*BitSet // locally available: computed and not killed after
}

// BuildUniverse scans f and computes the expression universe and its
// local dataflow properties.
func BuildUniverse(f *ir.Func) *Universe {
	u := &Universe{Fn: f, Index: map[ExprKey]int{}}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := b.Instr(i)
			k, ok := KeyOf(in)
			if !ok {
				continue
			}
			if _, dup := u.Index[k]; !dup {
				u.Index[k] = len(u.Keys)
				u.Keys = append(u.Keys, k)
				u.Float = append(u.Float, in.Op.Float())
				u.IsLoad = append(u.IsLoad, in.Op.IsLoad())
			}
		}
	}
	n := len(u.Keys)

	// usedBy[r] lists expressions having register r as an operand,
	// stored counting-sort style: one flat array partitioned by
	// per-register offsets, so building it costs two allocations
	// rather than one grow-append chain per register.
	nr := f.NumRegs()
	offs := make([]int32, nr+1)
	for _, k := range u.Keys {
		if k.A != ir.NoReg {
			offs[k.A+1]++
		}
		if k.B != ir.NoReg && k.B != k.A {
			offs[k.B+1]++
		}
	}
	for r := 0; r < nr; r++ {
		offs[r+1] += offs[r]
	}
	usedByFlat := make([]int32, offs[nr])
	fill := make([]int32, nr)
	copy(fill, offs[:nr])
	for i, k := range u.Keys {
		if k.A != ir.NoReg {
			usedByFlat[fill[k.A]] = int32(i)
			fill[k.A]++
		}
		if k.B != ir.NoReg && k.B != k.A {
			usedByFlat[fill[k.B]] = int32(i)
			fill[k.B]++
		}
	}
	usedBy := func(r ir.Reg) []int32 { return usedByFlat[offs[r]:offs[r+1]] }
	loads := NewBitSet(n)
	for i, isLd := range u.IsLoad {
		if isLd {
			loads.Set(i)
		}
	}

	nb := len(f.Blocks)
	u.Transp = NewBitSetFamily(nb, n)
	u.AntLoc = NewBitSetFamily(nb, n)
	u.Comp = NewBitSetFamily(nb, n)
	killed := NewBitSet(n) // expressions killed so far in this block
	for _, b := range f.Blocks {
		transp := u.Transp[b.ID]
		transp.SetAll()
		antloc := u.AntLoc[b.ID]
		comp := u.Comp[b.ID]
		killed.Reset(n)

		kill := func(e int) {
			killed.Set(e)
			transp.Clear(e)
			comp.Clear(e)
		}
		for i := range b.Instrs {
			in := b.Instr(i)
			if e, ok := u.Index[mustKey(in)]; ok {
				if !killed.Has(e) {
					antloc.Set(e)
				}
				comp.Set(e)
			}
			if in.Op.WritesMemory() {
				loads.ForEach(kill)
			}
			if in.Dst != ir.NoReg {
				for _, e := range usedBy(in.Dst) {
					kill(int(e))
				}
			}
		}
	}
	return u
}

// mustKey wraps KeyOf for instructions that may not be candidates; the
// zero key never appears in the index.
func mustKey(in *ir.Instr) ExprKey {
	k, ok := KeyOf(in)
	if !ok {
		return ExprKey{}
	}
	return k
}

// NumExprs returns the size of the universe.
func (u *Universe) NumExprs() int { return len(u.Keys) }

// MakeInstr materializes expression e into destination register dst,
// allocated in the universe's function arena.
func (u *Universe) MakeInstr(e int, dst ir.Reg) *ir.Instr {
	k := u.Keys[e]
	switch k.Op {
	case ir.OpLoadI:
		return u.Fn.NewLoadI(dst, k.Imm)
	case ir.OpLoadF:
		return u.Fn.NewLoadF(dst, floatFromBits(k.FBits))
	}
	if k.B != ir.NoReg {
		return u.Fn.NewInstr(k.Op, dst, k.A, k.B)
	}
	if k.A != ir.NoReg {
		return u.Fn.NewInstr(k.Op, dst, k.A)
	}
	return u.Fn.NewInstr(k.Op, dst)
}

// KillScan clears valid-set entries invalidated by an instruction: any
// expression with dst as an operand and, when memWrite is set, every
// load.  It is the in-block bookkeeping the rewriting phases of the
// redundancy-elimination backends share while walking a block's
// instructions with a "temporary still holds expression e" vector.
func (u *Universe) KillScan(valid *BitSet, dst ir.Reg, memWrite bool) {
	n := len(u.Keys)
	if memWrite {
		for e := 0; e < n; e++ {
			if u.IsLoad[e] && valid.Has(e) {
				valid.Clear(e)
			}
		}
	}
	if dst == ir.NoReg {
		return
	}
	for e := 0; e < n; e++ {
		if !valid.Has(e) {
			continue
		}
		if k := u.Keys[e]; k.A == dst || k.B == dst {
			valid.Clear(e)
		}
	}
}
