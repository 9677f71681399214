package reassoc

import (
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// Options configure the reassociation pass.
type Options struct {
	// Distribute enables rank-guided distribution of multiplication
	// over addition (the paper's "distribution" optimization level).
	Distribute bool
	// AllowFloat treats fadd/fmul as associative, as the paper's
	// FORTRAN setting does.  Languages that forbid floating-point
	// reordering set it false.
	AllowFloat bool
	// MaxDupSize bounds the duplication of *multi-use* subtrees.
	// Propagating a single-use expression forward moves it; cloning a
	// multi-use expression duplicates work that no later pass can
	// re-share (PRE only removes whole-expression redundancy).  A
	// value used more than once is propagated only while its tree has
	// at most MaxDupSize nodes; larger shared subtrees stay put as
	// leaves.  Repeated-squaring chains (x²,x⁴,x⁸,…) are the classic
	// case this guards — naive propagation would turn 6 multiplies
	// into 20.  Zero selects DefaultMaxDupSize.
	MaxDupSize int
}

// DefaultMaxDupSize is the multi-use duplication bound.  It is large
// enough to keep the paper's Figure 6 behavior (whole address
// expressions and small shared terms propagate) and small enough to
// preserve exponentiation-by-squaring DAGs.
const DefaultMaxDupSize = 8

// DefaultOptions match the paper's "reassociation" level.
func DefaultOptions() Options { return Options{Distribute: false, AllowFloat: true} }

// Stats reports the work done by one reassociation run.  BeforeProp and
// AfterProp are the static instruction counts around forward
// propagation — the two columns of the paper's Table 2.
type Stats struct {
	BeforeProp int
	AfterProp  int
	Trees      int // expression trees built and re-emitted
	MaxTree    int // largest tree size seen
}

// Expansion returns the code growth factor AfterProp/BeforeProp
// (Table 2's "expansion" column).
func (s Stats) Expansion() float64 {
	if s.BeforeProp == 0 {
		return 1
	}
	return float64(s.AfterProp) / float64(s.BeforeProp)
}

// Run performs global reassociation on f in place:
// pruned SSA (copies folded) → ranks → forward propagation with tree
// rewriting (sub→add+neg, flatten, sort by rank, optional
// distribution) → dead-code pruning of the now-unused original
// expression chains → φ-removal by predecessor copies.
//
// Propagation happens while the function is still in SSA form: single
// assignment means a cloned tree is valid anywhere its leaves
// dominate, so re-emitting at use sites can never read a clobbered
// value.  φ-inputs — one of the paper's essential propagation targets
// — are rebuilt at the end of the corresponding predecessor, which is
// where their value crosses the edge.
//
// CFG analyses (dominators, liveness, reverse postorder) come from the
// given cache.
func Run(f *ir.Func, opt Options, ac *analysis.Cache) Stats {
	ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, ac)
	ranks := ComputeRanks(f, ac)

	var st Stats
	st.BeforeProp = f.InstrCount()

	p := &propagator{f: f, ranks: ranks, opt: opt, maxDup: opt.MaxDupSize}
	if p.maxDup <= 0 {
		p.maxDup = DefaultMaxDupSize
	}
	p.indexDefs()
	p.propagate(&st)
	prunedDead(f)
	st.AfterProp = f.InstrCount()
	// Propagation and pruning rewrite instruction slices in place.
	f.MarkCodeMutated()

	ssa.Destruct(f, ac)
	return st
}

type propagator struct {
	f     *ir.Func
	ranks *Ranks
	opt   Options

	defCount []int
	defInstr []*ir.Instr
	useCount []int
	treeSize []int        // memoized tree size per register (0 = not computed)
	out      []ir.InstrID // emission buffer for the current site
	budget   int          // remaining tree nodes for the current operand
	maxDup   int
}

// maxTreeNodes bounds a single propagated tree.  Forward propagation
// duplicates shared subtrees, which "in the worst case ... can be
// exponential in the size of the routine" (paper §4.3); the budget
// turns pathological DAGs into leaves instead.
const maxTreeNodes = 4096

func (p *propagator) indexDefs() {
	n := p.f.NumRegs()
	p.defCount = make([]int, n)
	p.defInstr = make([]*ir.Instr, n)
	p.useCount = make([]int, n)
	p.treeSize = make([]int, n)
	p.f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpEnter {
			for _, a := range in.Args {
				p.defCount[a]++
				p.defInstr[a] = in
			}
			return
		}
		for _, a := range in.Args {
			p.useCount[a]++
		}
		if in.Dst != ir.NoReg {
			p.defCount[in.Dst]++
			p.defInstr[in.Dst] = in
		}
	})
}

// sizeOf returns the node count of the expression tree rooted at r
// (barriers count 1), memoized.
func (p *propagator) sizeOf(r ir.Reg) int {
	if p.treeSize[r] != 0 {
		return p.treeSize[r]
	}
	sz := 1
	if !p.barrier(r) {
		def := p.defInstr[r]
		if !def.IsConst() {
			for _, a := range def.Args {
				sz += p.sizeOf(a)
				if sz > maxTreeNodes {
					sz = maxTreeNodes
					break
				}
			}
		}
	}
	p.treeSize[r] = sz
	return sz
}

// barrier reports whether register r must stay a tree leaf: variables
// (copy targets and anything multiply defined), parameters, loads and
// call results.  These are exactly the values the rank rules treat
// like φ-results; propagating a load past a store would also be
// unsound.
func (p *propagator) barrier(r ir.Reg) bool {
	if p.defCount[r] != 1 {
		return true
	}
	def := p.defInstr[r]
	switch def.Op {
	case ir.OpCopy, ir.OpEnter, ir.OpCall, ir.OpPhi,
		ir.OpLoadW, ir.OpLoadD, ir.OpLoadS:
		return true
	}
	return !def.Op.Pure()
}

// treeOf builds the expression tree rooted at r by chasing unique,
// pure definitions backwards through the SSA graph.
func (p *propagator) treeOf(r ir.Reg) *Node {
	if p.barrier(r) || p.budget <= 0 {
		return RegLeaf(r, p.ranks.Of(r))
	}
	// Multi-use values are duplicated by propagation; keep large shared
	// subtrees in place (see Options.MaxDupSize).  Constants are always
	// worth re-materializing.
	if p.useCount[r] > 1 && !p.defInstr[r].IsConst() && p.sizeOf(r) > p.maxDup {
		return RegLeaf(r, p.ranks.Of(r))
	}
	p.budget--
	def := p.defInstr[r]
	switch def.Op {
	case ir.OpLoadI:
		return IntLeaf(def.Imm)
	case ir.OpLoadF:
		return FloatLeaf(def.FImm)
	}
	kids := make([]*Node, len(def.Args))
	for i, a := range def.Args {
		kids[i] = p.treeOf(a)
	}
	return NewNode(def.Op, kids...)
}

// emit generates three-address code for a transformed tree, appending
// to the emission buffer and returning the register holding the value.
// Associative n-ary nodes fold left over their (rank-sorted) children,
// so the low-ranked prefix forms hoistable subexpressions.
func (p *propagator) emit(n *Node) ir.Reg {
	switch {
	case n.IsLeafReg():
		return n.Leaf
	case n.Op == ir.OpLoadI:
		r := p.f.NewReg()
		p.out = append(p.out, p.f.NewLoadI(r, n.Imm).ID())
		return r
	case n.Op == ir.OpLoadF:
		r := p.f.NewReg()
		p.out = append(p.out, p.f.NewLoadF(r, n.FImm).ID())
		return r
	}
	if len(n.Kids) > 2 && n.Op.Associative() {
		acc := p.emit(n.Kids[0])
		for _, k := range n.Kids[1:] {
			kr := p.emit(k)
			r := p.f.NewReg()
			p.out = append(p.out, p.f.NewInstr(n.Op, r, acc, kr).ID())
			acc = r
		}
		return acc
	}
	args := make([]ir.Reg, len(n.Kids))
	for i, k := range n.Kids {
		args[i] = p.emit(k)
	}
	r := p.f.NewReg()
	p.out = append(p.out, p.f.NewInstr(n.Op, r, args...).ID())
	return r
}

// rewriteOperand builds, transforms and re-emits the tree for one
// essential operand, returning the new register.
func (p *propagator) rewriteOperand(r ir.Reg, st *Stats) ir.Reg {
	p.budget = maxTreeNodes
	t := p.treeOf(r)
	if t.IsLeafReg() {
		return r // nothing to propagate
	}
	t = Transform(t, p.opt.Distribute, p.opt.AllowFloat)
	st.Trees++
	if sz := t.Size(); sz > st.MaxTree {
		st.MaxTree = sz
	}
	return p.emit(t)
}

// propagate walks every block rebuilding the essential operands:
// φ-node inputs, branch conditions, store values and addresses, load
// addresses, call arguments and return values.
func (p *propagator) propagate(st *Stats) {
	// atPredEnd[p] collects instructions to insert before p's
	// terminator: the rebuilt trees feeding successor φ-nodes.
	atPredEnd := map[*ir.Block][]ir.InstrID{}

	for _, b := range p.f.Blocks {
		rebuilt := make([]ir.InstrID, 0, len(b.Instrs))
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpPhi {
				// Rebuild each φ input at the end of its predecessor.
				for ai := range in.Args {
					if ai >= len(b.Preds) {
						break
					}
					pred := b.Preds[ai]
					p.out = p.out[:0]
					in.Args[ai] = p.rewriteOperand(in.Args[ai], st)
					atPredEnd[pred] = append(atPredEnd[pred], p.out...)
				}
				rebuilt = append(rebuilt, inID)
				continue
			}
			var operands []int // indices of Args to rewrite
			switch in.Op {
			case ir.OpCopy, ir.OpCBr:
				operands = []int{0}
			case ir.OpRet:
				if len(in.Args) == 1 {
					operands = []int{0}
				}
			case ir.OpCall:
				for i := range in.Args {
					operands = append(operands, i)
				}
			case ir.OpStoreW, ir.OpStoreD, ir.OpStoreS:
				operands = []int{0, 1}
			case ir.OpLoadW, ir.OpLoadD, ir.OpLoadS:
				operands = []int{0}
			default:
				// A multi-use expression that stays put (its tree is
				// too large to duplicate) is itself a propagation
				// root: rebuild its operands so the code below the
				// sharing cut still gets reassociated.
				if in.Dst != ir.NoReg && in.Op.Pure() && !in.IsConst() &&
					p.useCount[in.Dst] > 1 && p.sizeOf(in.Dst) > p.maxDup {
					for i := range in.Args {
						operands = append(operands, i)
					}
				}
			}
			p.out = p.out[:0]
			for _, oi := range operands {
				in.Args[oi] = p.rewriteOperand(in.Args[oi], st)
			}
			rebuilt = append(rebuilt, p.out...)
			rebuilt = append(rebuilt, inID)
		}
		b.Instrs = rebuilt
	}
	for pred, ids := range atPredEnd {
		for _, id := range ids {
			pred.Append(p.f.Instr(id)) // before the terminator
		}
	}
}

// prunedDead removes pure instructions (and loads) whose results are
// never used, iterating to a fixed point.  Forward propagation leaves
// the original expression chains dead; this is the cleanup that makes
// the pass "move" rather than "copy" single-use expressions.
func prunedDead(f *ir.Func) {
	for {
		used := make([]bool, f.NumRegs())
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if in.Op == ir.OpEnter {
				return
			}
			for _, a := range in.Args {
				used[a] = true
			}
		})
		removed := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, inID := range b.Instrs {
				in := b.Fn.Instr(inID)
				removable := in.Dst != ir.NoReg && !used[in.Dst] &&
					(in.Op.Pure() || in.Op.IsLoad() || in.Op == ir.OpCopy)
				if removable {
					removed = true
					continue
				}
				kept = append(kept, inID)
			}
			b.Instrs = kept
		}
		if !removed {
			return
		}
	}
}
