// Precise SSA-native global value numbering: a sparse, optimistic,
// iterative value-numbering analysis in the style of Pai's iterative
// GVN (arXiv 1504.03239), with the value-expression semantics of
// Saleena and Paleri (arXiv 1302.6325).
//
// The AWZ partitioner in gvn.go treats φ as an uninterpreted operator
// keyed by its block, so it can never discover congruences that flow
// *through* a φ: φ(x, x) is not congruent to x, and φ(x+1, y+1) is not
// congruent to φ(x, y)+1, even though both hold on every path.  This
// backend represents each value by a value expression in a persistent
// hash-consed table and iterates an optimistic assignment to a
// fixpoint, applying two φ rules each round:
//
//	fold:    φ_b(v, v, ..., v)            ≡ v          (self and
//	         still-optimistic operands are ignored first)
//	compose: φ_b(op(s1,t1), ..., op(sk,tk)) ≡ op(φ_b(s1..sk), φ_b(t1..tk))
//
// The compose rule manufactures "phantom" φ expressions — value-φs
// that exist in no instruction — and because a real φ over the same
// operands interns to the same node, φ(x+1, y+1) and φ(x,y)+1 meet in
// one congruence class.  Back-edge congruences (two induction
// variables with identical updates) fall out of the optimistic start
// exactly as they do for AWZ.
//
// Termination: expression nodes are append-only and a node's operands
// always have strictly smaller ids, so the compose recursion descends
// a finite value-expression height.  Rounds stop when the partition
// induced by the assignment is unchanged; the round count is capped at
// len(values)+8 (a partition over n values cannot refine more than n
// times, and the φ rules only ever move a value between existing
// justification chains), with a sound pessimistic fallback should the
// cap ever be hit.
//
// The result is strictly at least as coarse a partition as AWZ's — the
// refinement invariant gvn's suite test enforces — and renaming reuses
// the exact machinery of the AWZ backend, so the downstream contract
// (renaming only; no instruction added, deleted, or moved) is
// unchanged.
package gvn

import (
	"encoding/binary"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// RunPrecise performs precise global value numbering on f: pruned SSA
// construction, the iterative value-expression partition, renaming to
// class representatives, and SSA destruction, drawing CFG analyses
// from the given cache.  Drop-in alternative to Run.
func RunPrecise(f *ir.Func, ac *analysis.Cache) Stats {
	ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, ac)
	st := PartitionPrecise(f, ac.RPO())
	ssa.Destruct(f, ac)
	return st
}

// PartitionPrecise value-numbers an SSA-form function with the precise
// iterative analysis and renames values to class representatives in
// place, exactly as Partition does for the AWZ partition.  rpo must be
// a current reverse postorder of f.
func PartitionPrecise(f *ir.Func, rpo []*ir.Block) Stats {
	values, class := PreciseClasses(f, rpo)
	return renameToReps(f, values, class)
}

// top is the optimistic "not yet computed" value number.  It is the
// zero value of the assignment array, so unprocessed values are ⊤ by
// construction; real node ids start at 1.
const top = uint32(0)

// pnode is one hash-consed value expression.  kind reuses the initKey
// vocabulary: 'c'/'f' integer/float constant, 'p' parameter position,
// 'u' opaque load/call result, 'o' operator, 'F' (value-)φ.
type pnode struct {
	kind    uint8
	op      ir.Op
	block   int32
	payload uint64
	args    []uint32 // node ids; always < this node's own id
}

// ptable is the persistent append-only expression table.  Node ids are
// stable across rounds, which is what lets the analysis compare keys
// built in different rounds and lets the compose recursion terminate
// (operand ids strictly decrease).
type ptable struct {
	nodes []pnode // nodes[0] is the ⊤ sentinel
	ids   map[string]uint32
	keyb  []byte // reused key-encoding buffer
}

func newPTable() *ptable {
	return &ptable{nodes: make([]pnode, 1), ids: map[string]uint32{}}
}

// intern returns the id of the node, creating it if new.  The byte key
// is an unambiguous encoding: fixed-width fields plus a length-prefixed
// argument vector.
func (t *ptable) intern(n pnode) uint32 {
	b := t.keyb[:0]
	b = append(b, n.kind, byte(n.op))
	b = binary.LittleEndian.AppendUint32(b, uint32(n.block))
	b = binary.LittleEndian.AppendUint64(b, n.payload)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.args)))
	for _, a := range n.args {
		b = binary.LittleEndian.AppendUint32(b, a)
	}
	t.keyb = b
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	id := uint32(len(t.nodes))
	t.nodes = append(t.nodes, n)
	t.ids[string(b)] = id
	return id
}

func (t *ptable) leaf(kind uint8, payload uint64) uint32 {
	return t.intern(pnode{kind: kind, payload: payload})
}

// opNode interns an operator application, canonicalizing commutative
// operand order so a+b and b+a meet in one node.
func (t *ptable) opNode(op ir.Op, args []uint32) uint32 {
	n := pnode{kind: 'o', op: op, args: append([]uint32(nil), args...)}
	if op.Commutative() && len(n.args) == 2 && n.args[0] > n.args[1] {
		n.args[0], n.args[1] = n.args[1], n.args[0]
	}
	return t.intern(n)
}

// phiNode applies the φ rules and interns the result.  ⊤ operand
// slots are ignored by both rules: a slot is ⊤ when the operand is the
// φ's own register (a loop-carried self-reference contributes no value
// of its own — the caller canonicalizes that by register identity, not
// by value-number coincidence, which would oscillate) or when the
// operand is still optimistically uncomputed (the fixpoint check
// verifies the assumption; a non-self ⊤ cannot survive past the first
// round).  Real φs and phantom φs canonicalize the same way, which is
// what lets them meet in one node.
func (t *ptable) phiNode(block int32, args []uint32) uint32 {
	canon := args

	// fold: collect the distinct non-⊤ operands.
	first := top
	uniform := true
	for _, a := range canon {
		if a == top {
			continue
		}
		if first == top {
			first = a
		} else if a != first {
			uniform = false
		}
	}
	if first == top {
		// Every operand was self or ⊤ (an isolated cycle): no value
		// flows in; give the φ its own uninterpreted node.
		return t.intern(pnode{kind: 'F', block: block, args: canon})
	}
	if uniform {
		return first
	}

	// compose: if every operand is the same operator applied
	// positionally, push the operator below the φ.  A ⊤ slot of the
	// outer φ stays a ⊤ slot of every component φ: "the φ keeps its
	// value along this edge" decomposes into each component keeping
	// its own.  Operand ids are strictly smaller than any node
	// containing them, so this recursion descends the finite
	// value-expression height.
	if compOp, arity, ok := t.commonOp(canon); ok {
		newArgs := make([]uint32, arity)
		for pos := 0; pos < arity; pos++ {
			sub := make([]uint32, len(canon))
			for i, a := range canon {
				if a == top {
					sub[i] = top
					continue
				}
				sub[i] = t.nodes[a].args[pos]
			}
			newArgs[pos] = t.phiNode(block, sub)
		}
		return t.opNode(compOp, newArgs)
	}

	return t.intern(pnode{kind: 'F', block: block, args: canon})
}

// commonOp reports whether every non-⊤ operand is an application of
// one identical pure operator (same opcode, same arity), enabling the
// compose rule.
func (t *ptable) commonOp(args []uint32) (ir.Op, int, bool) {
	var op ir.Op
	arity := -1
	for _, a := range args {
		if a == top {
			continue
		}
		n := &t.nodes[a]
		if n.kind != 'o' || !n.op.Pure() {
			return 0, 0, false
		}
		if arity == -1 {
			op, arity = n.op, len(n.args)
		} else if n.op != op || len(n.args) != arity {
			return 0, 0, false
		}
	}
	if arity <= 0 {
		return 0, 0, false
	}
	return op, arity, true
}

// PreciseClasses computes the precise value-expression partition of
// f's SSA values.  Like AWZClasses it returns the values in ascending
// register order and a register-indexed class-id table (0 marks a
// register that is not an SSA value); two values are congruent exactly
// when their class ids are equal.  rpo must be a current reverse
// postorder of f; it fixes the processing order.
func PreciseClasses(f *ir.Func, rpo []*ir.Block) ([]ir.Reg, []uint32) {
	nr := f.NumRegs()
	defs := make([]def, nr)
	var order []ir.Reg // processing order: defs in RPO, then leftovers
	addValue := func(r ir.Reg, d def) {
		if defs[r].in != nil {
			return // not SSA; keep the first def, stay conservative
		}
		defs[r] = d
		order = append(order, r)
	}
	inRPO := make([]bool, len(f.Blocks))
	collect := func(b *ir.Block) {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpEnter {
				for i, p := range in.Args {
					addValue(p, def{in: in, block: b, enterIdx: i})
				}
				continue
			}
			if in.Dst != ir.NoReg {
				addValue(in.Dst, def{in: in, block: b, enterIdx: -1})
			}
		}
	}
	for _, b := range rpo {
		inRPO[b.ID] = true
		collect(b)
	}
	for _, b := range f.Blocks { // unreachable leftovers, in block order
		if !inRPO[b.ID] {
			collect(b)
		}
	}

	t := newPTable()
	vn := make([]uint32, nr) // current assignment; 0 is ⊤
	prev := make([]uint32, nr)

	// valueize computes the value expression of one definition from
	// the current assignment (Gauss–Seidel: within a round, operands
	// defined earlier in RPO already carry this round's numbers).
	valueize := func(v ir.Reg) uint32 {
		d := defs[v]
		switch {
		case d.enterIdx >= 0:
			return t.leaf('p', uint64(d.enterIdx))
		case d.in.Op == ir.OpLoadI:
			return t.leaf('c', uint64(d.in.Imm))
		case d.in.Op == ir.OpLoadF:
			return t.leaf('f', floatBitsOf(d.in.FImm))
		case d.in.Op == ir.OpCall || d.in.Op.IsLoad():
			return t.leaf('u', uint64(v))
		case d.in.Op == ir.OpCopy:
			// A copy is its source's value (SSA construction normally
			// folds copies away; direct Partition callers may not).
			if a := d.in.Args[0]; int(a) < nr && vn[a] != top {
				return vn[a]
			}
			return t.leaf('u', uint64(v))
		case d.in.Op == ir.OpPhi:
			// Self-referential slots (the operand register IS the φ's
			// destination, a loop-carried identity) canonicalize to ⊤.
			args := make([]uint32, len(d.in.Args))
			for i, a := range d.in.Args {
				if a != v && int(a) < nr {
					args[i] = vn[a]
				}
			}
			return t.phiNode(int32(d.block.ID), args)
		default:
			args := make([]uint32, len(d.in.Args))
			for i, a := range d.in.Args {
				if int(a) < nr && vn[a] != top {
					args[i] = vn[a]
				} else {
					// Use of a register with no SSA def: unique.
					args[i] = t.leaf('u', uint64(a))
				}
			}
			return t.opNode(d.in.Op, args)
		}
	}

	converged := false
	for round := 0; round < len(order)+8; round++ {
		copy(prev, vn)
		changed := false
		for _, v := range order {
			nv := valueize(v)
			if nv != vn[v] {
				vn[v] = nv
				changed = true
			}
		}
		if !changed || samePartition(order, prev, vn) {
			converged = true
			break
		}
	}
	if !converged {
		// Never expected (see the termination note above); fall back
		// to the sound pessimistic partition: every value singleton.
		for i, v := range order {
			vn[v] = uint32(i) + 1
		}
	}

	values := append([]ir.Reg(nil), order...)
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	class := make([]uint32, nr)
	for _, v := range values {
		class[v] = vn[v]
	}
	return values, class
}

// samePartition reports whether two value-number assignments induce
// the same partition over the given values (ids themselves may differ
// between rounds; only the grouping matters).
func samePartition(values []ir.Reg, a, b []uint32) bool {
	a2b := map[uint32]uint32{}
	b2a := map[uint32]uint32{}
	for _, v := range values {
		if m, ok := a2b[a[v]]; ok {
			if m != b[v] {
				return false
			}
		} else {
			a2b[a[v]] = b[v]
		}
		if m, ok := b2a[b[v]]; ok {
			if m != a[v] {
				return false
			}
		} else {
			b2a[b[v]] = a[v]
		}
	}
	return true
}
