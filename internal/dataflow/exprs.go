package dataflow

import (
	"fmt"
	"math"
	"math/bits"

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
// per-block local properties PRE needs.  It is built once per pass run
// (BuildUniverse hashes each instruction's key once, into a per-InstrID
// expression index), kept current across a pass's own rewrites with
// Refresh, and narrowed to the expressions one round solves with
// Restrict.
type Universe struct {
	Fn   *ir.Func
	Keys []ExprKey
	// Float reports whether expression i produces a floating value
	// (needed to pick the right temporary copy opcode).
	Float []bool
	// IsLoad marks memory loads, which are killed by stores and calls.
	IsLoad []bool

	// Local properties: one row per block, indexed by block ID.
	Transp BitMatrix // operands (and memory, for loads) untouched in block
	AntLoc BitMatrix // locally anticipatable: computed before any kill
	Comp   BitMatrix // locally available: computed and not killed after

	// occ holds, by block ID, every expression the block computes; a
	// full universe keeps it, for Occurrences, Occurs and Computes.
	occ BitMatrix

	num *numbering // shared by a universe and its restrictions
	// ids[i] is the full universe's number of expression i, and
	// local[e] the number of the full universe's expression e here (-1
	// when absent); both are nil in a full universe, where they are the
	// identity.
	ids   []int32
	local []int32
}

// numbering is what a full universe and its restrictions share, all in
// the full universe's expression numbers: the per-instruction
// expression index, the dense register numbering and the kill lists.
type numbering struct {
	of []int32 // by InstrID: the expression the instruction computes, or -1

	// The key table: open addressing with linear probing, at most half
	// full; a slot holds 1 + an expression (0: empty).
	table []int32
	keys  []ExprKey // the full universe's Keys

	// Registers.  slot[r] is 1 + the dense number of register r among
	// the named registers — those some instruction named at the build,
	// in order of first mention (0: r was not named).  Registers
	// created since the build, all at or above len(slot), number on
	// from named.
	slot  []int
	named int

	// Kill lists: the users of the register numbered s are
	// users[offs[s]:offs[s+1]].
	offs  []int32
	users []int32
	loads []int32 // every load: killed by memory writes

	killed     BitSet    // Refresh scratch: expressions killed so far in a block
	seen       BitSet    // Occurrences scratch: expressions listed so far
	restricted *Universe // the storage Restrict reuses
}

// BuildUniverse scans f and computes the expression universe and its
// local dataflow properties.  regIndex, when non-nil, is a zeroed
// scratch slice of at least f.NumRegs() entries that the universe keeps
// as its register index for as long as it is used (passes borrow it
// from their analysis cache); nil allocates one.  Every other table is
// sized by the instructions, the expressions and the registers the
// function names.
func BuildUniverse(f *ir.Func, regIndex []int) *Universe {
	if regIndex == nil {
		regIndex = make([]int, f.NumRegs())
	}
	// The key table holds at most one key per instruction: four times
	// the largest power of two not above the instruction count + 1 keeps
	// it at most half full.
	size := 1
	for _, b := range f.Blocks {
		size += len(b.Instrs)
	}
	for size&(size-1) != 0 {
		size &= size - 1
	}
	num := &numbering{
		of:    make([]int32, f.NumInstrIDs()),
		table: make([]int32, 4*size),
		slot:  regIndex[:f.NumRegs()],
	}
	u := &Universe{Fn: f, num: num}
	for i := range num.of {
		num.of[i] = -1
	}
	name := func(r ir.Reg) {
		if r != ir.NoReg && num.slot[r] == 0 {
			num.named++
			num.slot[r] = num.named
		}
	}
	for _, b := range f.Blocks {
		for _, id := range b.Instrs {
			in := f.Instr(id)
			name(in.Dst)
			for _, a := range in.Args {
				name(a)
			}
			k, ok := KeyOf(in)
			if !ok {
				continue
			}
			h := num.probe(k)
			if num.table[h] == 0 {
				num.keys = append(num.keys, k)
				num.table[h] = int32(len(num.keys))
				u.Float = append(u.Float, in.Op.Float())
				u.IsLoad = append(u.IsLoad, in.Op.IsLoad())
			}
			num.of[id] = num.table[h] - 1
		}
	}
	u.Keys = num.keys
	n := len(u.Keys)

	// Lay the operand registers' users out counting-sort style: one
	// flat array partitioned by per-register offsets.  A register's
	// users end at offs[s] after the counting pass; filling from the
	// back moves each end to its run's start, leaving every run in
	// ascending expression order and offs[named] the total.
	nr := num.named
	num.offs = make([]int32, nr+1)
	for _, k := range u.Keys {
		if k.A != ir.NoReg {
			num.offs[num.slot[k.A]-1]++
		}
		if k.B != ir.NoReg && k.B != k.A {
			num.offs[num.slot[k.B]-1]++
		}
	}
	for s := 1; s <= nr; s++ {
		num.offs[s] += num.offs[s-1]
	}
	num.users = make([]int32, num.offs[nr])
	for e := n - 1; e >= 0; e-- {
		k := u.Keys[e]
		if k.B != ir.NoReg && k.B != k.A {
			s := num.slot[k.B] - 1
			num.offs[s]--
			num.users[num.offs[s]] = int32(e)
		}
		if k.A != ir.NoReg {
			s := num.slot[k.A] - 1
			num.offs[s]--
			num.users[num.offs[s]] = int32(e)
		}
	}
	for e, isLd := range u.IsLoad {
		if isLd {
			num.loads = append(num.loads, int32(e))
		}
	}
	// The four local properties of every block, and the two scratch
	// vectors, in one matrix.
	nb := len(f.Blocks)
	local := NewBitMatrix(4*nb+2, n)
	u.Transp, u.AntLoc, u.Comp, u.occ = local.Sub(0, nb), local.Sub(nb, 2*nb), local.Sub(2*nb, 3*nb), local.Sub(3*nb, 4*nb)
	num.killed, num.seen = local.Row(4*nb), local.Row(4*nb+1)
	u.Refresh(f.Blocks)
	return u
}

// probe returns the key table slot that holds k, or the empty slot
// where k belongs.
func (num *numbering) probe(k ExprKey) int {
	h := (uint64(k.Op)<<42 ^ uint64(uint32(k.A))<<21 ^ uint64(uint32(k.B))) * 0x9e3779b97f4a7c15
	h ^= (uint64(k.Imm) ^ k.FBits) * 0xc2b2ae3d27d4eb4f
	mask := len(num.table) - 1
	for i := int(h>>32^h) & mask; ; i = (i + 1) & mask {
		if e := num.table[i]; e == 0 || num.keys[e-1] == k {
			return i
		}
	}
}

// Lookup returns the expression with key k, if the universe holds it.
func (u *Universe) Lookup(k ExprKey) (int, bool) {
	e := u.num.table[u.num.probe(k)] - 1
	if e < 0 {
		return -1, false
	}
	if e = int32(u.fromFull(e)); e < 0 {
		return -1, false
	}
	return int(e), true
}

// usedBy returns the full universe's expressions that read register r.
func (num *numbering) usedBy(r ir.Reg) []int32 {
	if r == ir.NoReg || int(r) >= len(num.slot) {
		return nil // a register created after the build is read by no expression
	}
	s := num.slot[r]
	if s == 0 {
		return nil
	}
	return num.users[num.offs[s-1]:num.offs[s]]
}

// Refresh recomputes the local properties of the given blocks, which
// must belong to the full universe's function, after a pass changed
// their instructions.  The property matrices first follow the
// function's block list: rows for blocks added since are appended and
// rows for removed ones dropped.  A block removal renumbers the
// blocks, so after one every block must be refreshed.
func (u *Universe) Refresh(blocks []*ir.Block) {
	nb := len(u.Fn.Blocks)
	u.Transp.Resize(nb)
	u.AntLoc.Resize(nb)
	u.Comp.Resize(nb)
	u.occ.Resize(nb)
	num := u.num
	killed := num.killed
	for _, b := range blocks {
		transp, antloc, comp, occ := u.Transp.Row(b.ID), u.AntLoc.Row(b.ID), u.Comp.Row(b.ID), u.occ.Row(b.ID)
		transp.SetAll()
		antloc.ClearAll()
		comp.ClearAll()
		occ.ClearAll()
		killed.ClearAll()
		kill := func(e int32) {
			killed.Set(int(e))
			transp.Clear(int(e))
			comp.Clear(int(e))
		}
		for _, id := range b.Instrs {
			if int(id) < len(num.of) {
				if e := num.of[id]; e >= 0 {
					if !killed.Has(int(e)) {
						antloc.Set(int(e))
					}
					comp.Set(int(e))
					occ.Set(int(e))
				}
			}
			in := u.Fn.Instr(id)
			if in.Op.WritesMemory() {
				for _, e := range num.loads {
					kill(e)
				}
			}
			for _, e := range num.usedBy(in.Dst) {
				kill(e)
			}
		}
	}
}

// Restrict returns the universe of the full universe u's expressions
// ids, in that order: expression i of the result is u's expression
// ids[i].  Its local properties are gathered from u's into matrices
// drawn from sets, and its Expr, MakeInstr and KillScan speak its own
// numbers.  Restricting to every expression in order returns u itself.
// A restriction's tables live in storage u keeps for the next one, so
// it is valid until u is restricted again or sets is Reset.
func (u *Universe) Restrict(ids []int32, sets *FamilyStore) *Universe {
	n := u.NumExprs()
	identity := len(ids) == n
	for i := 0; identity && i < n; i++ {
		identity = ids[i] == int32(i)
	}
	if identity {
		return u
	}
	r := u.num.restricted
	if r == nil {
		r = &Universe{Fn: u.Fn, num: u.num, local: make([]int32, n)}
		for e := range r.local {
			r.local[e] = -1
		}
		u.num.restricted = r
	}
	for _, e := range r.ids {
		r.local[e] = -1
	}
	r.ids = append(r.ids[:0], ids...)
	r.Keys, r.Float, r.IsLoad = r.Keys[:0], r.Float[:0], r.IsLoad[:0]
	for i, e := range ids {
		r.Keys = append(r.Keys, u.Keys[e])
		r.Float = append(r.Float, u.Float[e])
		r.IsLoad = append(r.IsLoad, u.IsLoad[e])
		r.local[e] = int32(i)
	}
	nb, m := len(u.Fn.Blocks), len(ids)
	fam := sets.Family(3*nb, m)
	r.Transp, r.AntLoc, r.Comp = fam.Sub(0, nb), fam.Sub(nb, 2*nb), fam.Sub(2*nb, 3*nb)
	// Element i of a restricted vector is element ids[i] of u's; the
	// three properties share each element's word and bit.
	for _, b := range u.Fn.Blocks {
		transp, antloc, comp := u.Transp.Row(b.ID).words, u.AntLoc.Row(b.ID).words, u.Comp.Row(b.ID).words
		rt, ra, rc := r.Transp.Row(b.ID).words, r.AntLoc.Row(b.ID).words, r.Comp.Row(b.ID).words
		for i, e := range ids {
			w, bit := e>>6, uint64(1)<<(e&63)
			ri, rbit := i>>6, uint64(1)<<(i&63)
			if transp[w]&bit != 0 {
				rt[ri] |= rbit
			}
			if antloc[w]&bit != 0 {
				ra[ri] |= rbit
			}
			if comp[w]&bit != 0 {
				rc[ri] |= rbit
			}
		}
	}
	return r
}

// Occurrences appends to ids the expressions of set, a vector over the
// full universe u, in order of first occurrence in the function (block
// order, then instruction order), and marks occurs[b.ID] for every
// block that computes one of them.  It reads the blocks' occurrence
// vectors, and a block's instructions only where two or more of set's
// expressions occur for the first time.
func (u *Universe) Occurrences(set BitSet, ids []int32, occurs []bool) []int32 {
	seen := u.num.seen
	seen.ClearAll()
	for _, b := range u.Fn.Blocks {
		hit, fresh, first := false, 0, 0
		for i, w := range u.occ.Row(b.ID).words {
			w &= set.words[i]
			if w == 0 {
				continue
			}
			hit = true
			if w &^= seen.words[i]; w != 0 {
				fresh += bits.OnesCount64(w)
				first = i*64 + bits.TrailingZeros64(w)
			}
		}
		if !hit {
			continue
		}
		occurs[b.ID] = true
		switch {
		case fresh == 1:
			seen.Set(first)
			ids = append(ids, int32(first))
		case fresh > 1:
			for _, id := range b.Instrs {
				if e := u.Expr(u.Fn.Instr(id)); e >= 0 && set.Has(e) && !seen.Has(e) {
					seen.Set(e)
					ids = append(ids, int32(e))
				}
			}
		}
	}
	return ids
}

// Occurs reports whether block b computes expression e of the full
// universe u.
func (u *Universe) Occurs(b *ir.Block, e int) bool { return u.occ.Row(b.ID).Has(e) }

// Computes reports whether block b computes any expression of the full
// universe u.
func (u *Universe) Computes(b *ir.Block) bool { return !u.occ.Row(b.ID).Empty() }

// fromFull maps a full-universe expression number to this universe's,
// -1 when absent.
func (u *Universe) fromFull(e int32) int {
	if u.local == nil {
		return int(e)
	}
	return int(u.local[e])
}

// Expr returns the expression instruction in computes, or -1 when it
// computes none this universe holds.  It reads the per-instruction
// index — no key is hashed — so it knows the instructions present at
// the build and those MakeInstr created since.
func (u *Universe) Expr(in *ir.Instr) int {
	of := u.num.of
	id := int(in.ID())
	if id >= len(of) || of[id] < 0 {
		return -1
	}
	return u.fromFull(of[id])
}

// RegSlot returns the dense number, below NumRegSlots, of a register
// the function names: the registers named when the universe was built
// come first, then every register created since.  It is -1 for a
// register that existed unnamed at the build (no pass that keeps the
// universe current names one).  Per-register state sized by
// NumRegSlots covers the registers a function uses, not f.NumRegs().
func (u *Universe) RegSlot(r ir.Reg) int {
	num := u.num
	if int(r) >= len(num.slot) {
		return num.named + int(r) - len(num.slot)
	}
	if r == ir.NoReg {
		return -1
	}
	return num.slot[r] - 1
}

// NumRegSlots returns the number of register slots RegSlot hands out.
func (u *Universe) NumRegSlots() int { return u.num.named + u.Fn.NumRegs() - len(u.num.slot) }

// NumExprs returns the size of the universe.
func (u *Universe) NumExprs() int { return len(u.Keys) }

// MakeInstr materializes expression e into destination register dst,
// allocated in the universe's function arena, and records it in the
// instruction index.
func (u *Universe) MakeInstr(e int, dst ir.Reg) *ir.Instr {
	k := u.Keys[e]
	var in *ir.Instr
	switch {
	case k.Op == ir.OpLoadI:
		in = u.Fn.NewLoadI(dst, k.Imm)
	case k.Op == ir.OpLoadF:
		in = u.Fn.NewLoadF(dst, floatFromBits(k.FBits))
	case k.B != ir.NoReg:
		in = u.Fn.NewInstr(k.Op, dst, k.A, k.B)
	case k.A != ir.NoReg:
		in = u.Fn.NewInstr(k.Op, dst, k.A)
	default:
		in = u.Fn.NewInstr(k.Op, dst)
	}
	full := int32(e)
	if u.ids != nil {
		full = u.ids[e]
	}
	num := u.num
	for len(num.of) <= int(in.ID()) {
		num.of = append(num.of, -1)
	}
	num.of[in.ID()] = full
	return in
}

// KillScan clears valid-set entries invalidated by an instruction: any
// expression with dst as an operand and, when memWrite is set, every
// load.  It is the in-block bookkeeping the rewriting phases of the
// redundancy-elimination backends share while walking a block's
// instructions with a "temporary still holds expression e" vector.  It
// visits only the expressions that read dst (and the loads), never the
// whole universe.
func (u *Universe) KillScan(valid BitSet, dst ir.Reg, memWrite bool) {
	if memWrite {
		for _, e := range u.num.loads {
			if e := u.fromFull(e); e >= 0 {
				valid.Clear(e)
			}
		}
	}
	for _, e := range u.num.usedBy(dst) {
		if e := u.fromFull(e); e >= 0 {
			valid.Clear(e)
		}
	}
}

// AddReaders adds to set, a vector over this universe, every
// expression that reads register r.
func (u *Universe) AddReaders(set BitSet, r ir.Reg) {
	for _, e := range u.num.usedBy(r) {
		if e := u.fromFull(e); e >= 0 {
			set.Set(e)
		}
	}
}
