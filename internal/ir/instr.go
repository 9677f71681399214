package ir

import "strconv"

// Reg names a virtual register.  Register 0 is "no register".
type Reg int32

// NoReg is the absent register (e.g. the destination of a store).
const NoReg Reg = 0

// regNameCacheSize bounds the precomputed register-name table; names
// of larger register numbers fall back to strconv.
const regNameCacheSize = 2048

// regNames caches the textual form of small register numbers so the
// print hot path does not call strconv.Itoa once per operand.
var regNames = func() [regNameCacheSize]string {
	var t [regNameCacheSize]string
	t[0] = "r?"
	for i := 1; i < len(t); i++ {
		t[i] = "r" + strconv.Itoa(i)
	}
	return t
}()

// String renders the register in ILOC syntax: r1, r2, ...
func (r Reg) String() string {
	if r > NoReg && int(r) < len(regNames) {
		return regNames[r]
	}
	if r == NoReg {
		return "r?"
	}
	return "r" + strconv.Itoa(int(r))
}

// appendReg appends the register's ILOC name to buf.
func appendReg(buf []byte, r Reg) []byte {
	if r > NoReg && int(r) < len(regNames) {
		return append(buf, regNames[r]...)
	}
	if r == NoReg {
		return append(buf, "r?"...)
	}
	buf = append(buf, 'r')
	return strconv.AppendInt(buf, int64(r), 10)
}

// InstrID densely identifies an instruction within its owning
// function's arena.  IDs are assigned in allocation order and never
// reused for the life of the function, so side tables indexed by
// InstrID stay valid across block-list surgery.
type InstrID int32

// NoInstr is the absent instruction ID.
const NoInstr InstrID = -1

// Sym is an interned symbol: an index into the owning function's
// symbol table (see Func.InternSym and Func.SymName).  The zero Sym is
// the empty name.
type Sym int32

// NoSym is the absent symbol.
const NoSym Sym = 0

// Instr is a single ILOC instruction, stored in its function's arena.
//
// Only the fields relevant to Op are meaningful: Imm for loadI, FImm
// for loadF, Sym for call.  Branch targets are not stored on the
// instruction; they are the owning block's Succs, in order.  Args is a
// capacity-clipped view into the function's operand pool: elements may
// be rewritten in place (and the view shrunk), but appending past its
// length reallocates the list off-pool.
type Instr struct {
	Op   Op
	Dst  Reg
	Args []Reg
	Imm  int64   // integer immediate (loadI)
	FImm float64 // floating immediate (loadF)
	Sym  Sym     // interned callee name (call)

	// id holds the arena slot plus one, so the zero Instr — which was
	// not allocated from any arena — reports NoInstr.
	id InstrID
}

// ID returns the instruction's dense arena ID, or NoInstr if the
// instruction was not allocated from a function arena.
func (in *Instr) ID() InstrID {
	if in.id == 0 {
		return NoInstr
	}
	return in.id - 1
}

// Uses returns the registers read by the instruction (the Args list;
// callers must not grow it through this accessor).
func (in *Instr) Uses() []Reg { return in.Args }

// ReplaceUses rewrites every use of register old to new and reports how
// many operands changed.
func (in *Instr) ReplaceUses(old, new Reg) int {
	n := 0
	for i, a := range in.Args {
		if a == old {
			in.Args[i] = new
			n++
		}
	}
	return n
}

// IsConst reports whether the instruction materializes a constant.
func (in *Instr) IsConst() bool { return in.Op == OpLoadI || in.Op == OpLoadF }

// DefinesExprName reports whether in defines an expression name in the
// sense of the paper's naming discipline (§2.2, §5.1): its target is
// computed by a pure operation or a load.  Copy, enter, call and φ
// targets are variable names.
func (in *Instr) DefinesExprName() bool {
	if in.Dst == NoReg {
		return false
	}
	switch in.Op {
	case OpCopy, OpEnter, OpCall, OpPhi:
		return false
	}
	return in.Op.Pure() || in.Op.IsLoad()
}

// appendInstr appends the instruction in ILOC text syntax (without
// branch targets, which belong to the block).  The owning function
// resolves interned call symbols.
func appendInstr(buf []byte, f *Func, in *Instr) []byte {
	buf = append(buf, in.Op.String()...)
	switch in.Op {
	case OpLoadI:
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, in.Imm, 10)
	case OpLoadF:
		buf = append(buf, ' ')
		buf = appendFloat(buf, in.FImm)
	case OpCall:
		buf = append(buf, ' ')
		buf = append(buf, f.SymName(in.Sym)...)
		buf = append(buf, '(')
		for i, a := range in.Args {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = appendReg(buf, a)
		}
		buf = append(buf, ')')
	case OpEnter:
		buf = append(buf, '(')
		for i, a := range in.Args {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = appendReg(buf, a)
		}
		buf = append(buf, ')')
	case OpLoadW, OpLoadD, OpLoadS:
		buf = append(buf, " ["...)
		buf = appendReg(buf, in.Args[0])
		buf = append(buf, ']')
	case OpStoreW, OpStoreD, OpStoreS:
		buf = append(buf, ' ')
		buf = appendReg(buf, in.Args[0])
		buf = append(buf, " => ["...)
		buf = appendReg(buf, in.Args[1])
		buf = append(buf, ']')
		return buf
	default:
		for i, a := range in.Args {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, ' ')
			buf = appendReg(buf, a)
		}
	}
	if in.Dst != NoReg {
		buf = append(buf, " => "...)
		buf = appendReg(buf, in.Dst)
	}
	return buf
}

// InstrString renders an instruction of f in ILOC text syntax.
func (f *Func) InstrString(in *Instr) string {
	return string(appendInstr(nil, f, in))
}

// appendFloat renders a float immediate so that the parser can read it
// back exactly and always distinguishes it from an integer.
func appendFloat(buf []byte, fl float64) []byte {
	start := len(buf)
	buf = strconv.AppendFloat(buf, fl, 'g', -1, 64)
	marker := false
	for _, c := range buf[start:] { // ensure a float marker (Inf/NaN keep letters)
		if c == '.' || c == 'e' || c == 'E' || c == 'n' || c == 'N' {
			marker = true
			break
		}
	}
	if !marker {
		buf = append(buf, ".0"...)
	}
	return buf
}

// formatFloat is appendFloat as a string.
func formatFloat(fl float64) string { return string(appendFloat(nil, fl)) }

// SetLoadI rewrites the instruction in place into loadI v => dst,
// keeping its arena identity.
func (in *Instr) SetLoadI(v int64) {
	in.Op, in.Args, in.Imm, in.FImm, in.Sym = OpLoadI, nil, v, 0, NoSym
}

// SetLoadF rewrites the instruction in place into loadF v => dst.
func (in *Instr) SetLoadF(v float64) {
	in.Op, in.Args, in.Imm, in.FImm, in.Sym = OpLoadF, nil, 0, v, NoSym
}

// SetCopy rewrites the instruction in place into copy src => dst.  The
// operand list reuses the instruction's existing pool view when it has
// capacity.
func (in *Instr) SetCopy(src Reg) {
	in.Op, in.Imm, in.FImm, in.Sym = OpCopy, 0, 0, NoSym
	in.Args = append(in.Args[:0], src)
}

// SetOp2 rewrites the instruction in place into a two-operand pure
// operation op a, b => dst.
func (in *Instr) SetOp2(op Op, a, b Reg) {
	in.Op, in.Imm, in.FImm, in.Sym = op, 0, 0, NoSym
	in.Args = append(in.Args[:0], a, b)
}
