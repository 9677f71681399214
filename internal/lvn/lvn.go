// Package lvn implements local (hash-based) value numbering — one of
// the two passes the paper reports missing from its optimizer ("we are
// currently missing passes for strength reduction and hash-based value
// numbering", §4.1) and expects to benefit from reassociation.  It is
// provided as an extension so the benchmark harness can measure the
// paper's conjecture.
//
// The algorithm is the classic Cocke–Schwartz scheme, one basic block
// at a time: every register maps to a value number; expressions hash
// on (opcode, operand value numbers) with commutative operands
// canonicalized; a redundant computation whose previous result still
// lives in a register is replaced by a copy.  Constants get value
// numbers by value and fold through pure operators.  Loads hash on
// (load, address VN, memory epoch); stores and calls advance the
// epoch.
package lvn

import (
	"repro/internal/ir"
	"repro/internal/sccp"
)

// Stats reports the rewrites performed.
type Stats struct {
	Replaced int // computations replaced by copies
	Folded   int // computations folded to constants
}

// Changed reports whether the run modified the function.
func (s Stats) Changed() bool { return s.Replaced+s.Folded > 0 }

// Run performs local value numbering on every block of f.
func Run(f *ir.Func) Stats {
	var st Stats
	for _, b := range f.Blocks {
		runBlock(f, b, &st)
	}
	if st.Changed() {
		// Rewrites assign b.Instrs[i] directly, bypassing the Block
		// helpers.
		f.MarkCodeMutated()
	}
	return st
}

type vn = int32

type exprKey struct {
	op    ir.Op
	a, b  vn
	epoch int32 // memory epoch, loads only
}

type constVal struct {
	isFloat bool
	i       int64
	f       float64
}

type state struct {
	next    vn
	regVN   map[ir.Reg]vn
	exprVN  map[exprKey]vn
	constVN map[constVal]vn
	home    map[vn]ir.Reg   // register that held the value last
	vnConst map[vn]constVal // constant value, if known
	epoch   int32
}

func (s *state) fresh() vn {
	s.next++
	return s.next
}

func (s *state) valueOf(r ir.Reg) vn {
	if v, ok := s.regVN[r]; ok {
		return v
	}
	v := s.fresh()
	s.regVN[r] = v
	s.home[v] = r
	return v
}

// define records that r now holds value v (clobbering r's old value's
// home if r was it).
func (s *state) define(r ir.Reg, v vn) {
	if old, ok := s.regVN[r]; ok && s.home[old] == r {
		delete(s.home, old)
	}
	s.regVN[r] = v
	s.home[v] = r
}

// homeOf returns a register currently holding v, if any.
func (s *state) homeOf(v vn) (ir.Reg, bool) {
	r, ok := s.home[v]
	if !ok {
		return ir.NoReg, false
	}
	if s.regVN[r] != v {
		delete(s.home, v)
		return ir.NoReg, false
	}
	return r, true
}

func (s *state) constOf(v vn) (constVal, bool) {
	c, ok := s.vnConst[v]
	return c, ok
}

func (s *state) vnForConst(c constVal) vn {
	if v, ok := s.constVN[c]; ok {
		return v
	}
	v := s.fresh()
	s.constVN[c] = v
	s.vnConst[v] = c
	return v
}

func runBlock(f *ir.Func, b *ir.Block, st *Stats) {
	s := &state{
		regVN:   map[ir.Reg]vn{},
		exprVN:  map[exprKey]vn{},
		constVN: map[constVal]vn{},
		home:    map[vn]ir.Reg{},
		vnConst: map[vn]constVal{},
	}
	for idx, inID := range b.Instrs {
		in := b.Fn.Instr(inID)
		switch {
		case in.Op == ir.OpLoadI:
			s.define(in.Dst, s.vnForConst(constVal{i: in.Imm}))
			continue
		case in.Op == ir.OpLoadF:
			s.define(in.Dst, s.vnForConst(constVal{isFloat: true, f: in.FImm}))
			continue
		case in.Op == ir.OpCopy:
			s.define(in.Dst, s.valueOf(in.Args[0]))
			continue
		case in.Op == ir.OpEnter:
			for _, p := range in.Args {
				s.valueOf(p)
			}
			continue
		case in.Op == ir.OpCall:
			s.epoch++
			if in.Dst != ir.NoReg {
				s.define(in.Dst, s.fresh())
			}
			continue
		case in.Op.IsStore():
			s.epoch++
			continue
		case in.Op == ir.OpPhi || in.Op.IsTerminator():
			if in.Dst != ir.NoReg {
				s.define(in.Dst, s.fresh())
			}
			continue
		}

		// Pure operations and loads.
		key := exprKey{op: in.Op}
		if len(in.Args) > 0 {
			key.a = s.valueOf(in.Args[0])
		}
		if len(in.Args) > 1 {
			key.b = s.valueOf(in.Args[1])
		}
		if in.Op.Commutative() && key.b != 0 && key.b < key.a {
			key.a, key.b = key.b, key.a
		}
		if in.Op.IsLoad() {
			key.epoch = s.epoch
		}

		// Constant folding through value numbers.
		if in.Op.Pure() && len(in.Args) > 0 {
			if folded, ok := s.tryFold(f, in); ok {
				b.Instrs[idx] = folded.ID()
				var c constVal
				if folded.Op == ir.OpLoadF {
					c = constVal{isFloat: true, f: folded.FImm}
				} else {
					c = constVal{i: folded.Imm}
				}
				s.define(in.Dst, s.vnForConst(c))
				st.Folded++
				continue
			}
		}

		if v, ok := s.exprVN[key]; ok {
			if home, live := s.homeOf(v); live {
				b.Instrs[idx] = f.NewCopy(in.Dst, home).ID()
				s.define(in.Dst, v)
				st.Replaced++
				continue
			}
			// Recompute, but keep the same value number.
			s.define(in.Dst, v)
			continue
		}
		v := s.fresh()
		s.exprVN[key] = v
		s.define(in.Dst, v)
	}
}

// tryFold evaluates in when all operand value numbers are constants.
func (s *state) tryFold(f *ir.Func, in *ir.Instr) (*ir.Instr, bool) {
	n := len(in.Args)
	if n > 2 {
		return nil, false // pure ops take at most two operands
	}
	// Fixed-size scratch keeps the per-instruction probe allocation-free.
	var ints [2]int64
	var floats [2]float64
	var isF [2]bool
	for i, a := range in.Args {
		c, ok := s.constOf(s.valueOf(a))
		if !ok {
			return nil, false
		}
		ints[i], floats[i], isF[i] = c.i, c.f, c.isFloat
	}
	iv, fv, isFloat, ok := sccp.Fold(in.Op, ints[:n], floats[:n], isF[:n])
	if !ok {
		return nil, false
	}
	if isFloat {
		return f.NewLoadF(in.Dst, fv), true
	}
	return f.NewLoadI(in.Dst, iv), true
}
