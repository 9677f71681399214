package reassoc

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ir"
)

// Node is one vertex of an expression tree built by forward
// propagation.  Interior nodes carry an operation; associative interior
// nodes may have any number of children after flattening.  Leaves are
// either registers (variables, parameters, load and call results — the
// propagation barriers) or constants.
type Node struct {
	Op   ir.Op // OpInvalid for register leaves; OpLoadI/OpLoadF for constants
	Leaf ir.Reg
	Imm  int64
	FImm float64
	Kids []*Node
	Rank int
}

// IsLeafReg reports whether the node is a register leaf.
func (n *Node) IsLeafReg() bool { return n.Op == ir.OpInvalid }

// IsConst reports whether the node is a constant leaf.
func (n *Node) IsConst() bool { return n.Op == ir.OpLoadI || n.Op == ir.OpLoadF }

// Size returns the number of nodes in the tree.
func (n *Node) Size() int {
	s := 1
	for _, k := range n.Kids {
		s += k.Size()
	}
	return s
}

// String renders the tree as a parenthesized expression for debugging
// and golden tests.
func (n *Node) String() string {
	switch {
	case n.IsLeafReg():
		return n.Leaf.String()
	case n.Op == ir.OpLoadI:
		return fmt.Sprintf("%d", n.Imm)
	case n.Op == ir.OpLoadF:
		return fmt.Sprintf("%g", n.FImm)
	}
	parts := make([]string, len(n.Kids))
	for i, k := range n.Kids {
		parts[i] = k.String()
	}
	return fmt.Sprintf("(%s %s)", n.Op, strings.Join(parts, " "))
}

// RegLeaf builds a register leaf with the given rank.
func RegLeaf(r ir.Reg, rank int) *Node { return &Node{Leaf: r, Rank: rank} }

// IntLeaf builds an integer-constant leaf (rank 0).
func IntLeaf(v int64) *Node { return &Node{Op: ir.OpLoadI, Imm: v} }

// FloatLeaf builds a float-constant leaf (rank 0).
func FloatLeaf(v float64) *Node { return &Node{Op: ir.OpLoadF, FImm: v} }

// NewNode builds an interior node; the rank is the max of the kids'.
func NewNode(op ir.Op, kids ...*Node) *Node {
	n := &Node{Op: op, Kids: kids}
	n.recomputeRank()
	return n
}

func (n *Node) recomputeRank() {
	if len(n.Kids) == 0 {
		return // leaves keep their assigned rank (constants stay 0)
	}
	r := 0
	for _, k := range n.Kids {
		if k.Rank > r {
			r = k.Rank
		}
	}
	n.Rank = r
}

// negOf returns the negation opcode matching an additive op.
func negOf(op ir.Op) ir.Op {
	if op == ir.OpFAdd || op == ir.OpFSub {
		return ir.OpFNeg
	}
	return ir.OpNeg
}

// addOf maps a subtract opcode to its additive counterpart.
func addOf(op ir.Op) (ir.Op, bool) {
	switch op {
	case ir.OpSub:
		return ir.OpAdd, true
	case ir.OpFSub:
		return ir.OpFAdd, true
	}
	return op, false
}

// mulAddPair reports whether op is a multiplication and returns the
// matching addition for distribution.
func mulAddPair(op ir.Op) (ir.Op, bool) {
	switch op {
	case ir.OpMul:
		return ir.OpAdd, true
	case ir.OpFMul:
		return ir.OpFAdd, true
	}
	return op, false
}

// Transform applies the paper's reordering to a tree, in place where
// convenient, returning the (possibly new) root:
//
//  1. rewrite x − y as x + (−y), "since addition is associative and
//     subtraction is not" (after Frailey);
//  2. flatten nested associative operations into n-ary nodes;
//  3. sort the operands of each associative (and commutative)
//     operation by rank, so the low-ranked operands are placed
//     together and constants (rank 0) clump at the front;
//  4. optionally distribute a low-ranked multiplier over a
//     higher-ranked sum, partially and rank-guided, then re-sort.
//
// allowFloat gates the treatment of fadd/fmul as associative.
func Transform(root *Node, distribute, allowFloat bool) *Node {
	root = rewriteSub(root, allowFloat)
	root = flatten(root, allowFloat)
	sortKids(root, allowFloat)
	if distribute {
		root = distributeNode(root, allowFloat, 0)
		root = flatten(root, allowFloat)
		// "It is important to re-sort sums after distribution."
		sortKids(root, allowFloat)
	}
	return root
}

func assocOK(op ir.Op, allowFloat bool) bool {
	if !op.Associative() {
		return false
	}
	if op.Float() && !allowFloat {
		return false
	}
	return true
}

// rewriteSub converts subtraction into addition of a negation.
func rewriteSub(n *Node, allowFloat bool) *Node {
	for i, k := range n.Kids {
		n.Kids[i] = rewriteSub(k, allowFloat)
	}
	if add, ok := addOf(n.Op); ok && len(n.Kids) == 2 && assocOK(add, allowFloat) {
		neg := NewNode(negOf(n.Op), n.Kids[1])
		res := NewNode(add, n.Kids[0], neg)
		return res
	}
	n.recomputeRank()
	return n
}

// flatten splices nested same-op associative children into their
// parents, producing n-ary sums and products.
func flatten(n *Node, allowFloat bool) *Node {
	for i, k := range n.Kids {
		n.Kids[i] = flatten(k, allowFloat)
	}
	if assocOK(n.Op, allowFloat) {
		kids := make([]*Node, 0, len(n.Kids))
		for _, k := range n.Kids {
			if k.Op == n.Op {
				kids = append(kids, k.Kids...)
			} else {
				kids = append(kids, k)
			}
		}
		n.Kids = kids
	}
	n.recomputeRank()
	return n
}

// sortKids orders the children of associative (or simply commutative)
// nodes by ascending rank.  Ties break on a deterministic structural
// key so output code is stable run to run.
func sortKids(n *Node, allowFloat bool) {
	scr := scratchPool.Get().(*sortScratch)
	sortKidsRec(n, allowFloat, scr)
	scratchPool.Put(scr)
}

// scratchPool recycles sort scratch across trees (and safely across
// the concurrent table runs, which is why this is a sync.Pool rather
// than a package-level buffer).
var scratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// sortScratch is reused across every node of one sortKids walk.  A
// child's sort completes before its parent consults the scratch, so a
// single instance serves the whole recursion.
type sortScratch struct {
	buf    []byte // all keys of the node being sorted, concatenated
	ends   []int  // ends[i] = end offset of child i's key in buf
	order  []int
	sorted []*Node
}

func sortKidsRec(n *Node, allowFloat bool, scr *sortScratch) {
	for _, k := range n.Kids {
		sortKidsRec(k, allowFloat, scr)
	}
	canSort := assocOK(n.Op, allowFloat) ||
		(n.Op.Commutative() && (!n.Op.Float() || allowFloat))
	if canSort && len(n.Kids) > 1 {
		// Keys are computed once per child, not once per comparison,
		// and the sort avoids reflection; the ordering is identical to
		// sorting on (Rank, structuralKey) pairwise.
		scr.buf = scr.buf[:0]
		scr.ends = scr.ends[:0]
		for _, k := range n.Kids {
			scr.buf = appendStructuralKey(scr.buf, k)
			scr.ends = append(scr.ends, len(scr.buf))
		}
		key := func(i int) []byte {
			start := 0
			if i > 0 {
				start = scr.ends[i-1]
			}
			return scr.buf[start:scr.ends[i]]
		}
		scr.order = scr.order[:0]
		for i := range n.Kids {
			scr.order = append(scr.order, i)
		}
		slices.SortStableFunc(scr.order, func(i, j int) int {
			a, b := n.Kids[i], n.Kids[j]
			if a.Rank != b.Rank {
				return a.Rank - b.Rank
			}
			return bytes.Compare(key(i), key(j))
		})
		scr.sorted = scr.sorted[:0]
		for _, o := range scr.order {
			scr.sorted = append(scr.sorted, n.Kids[o])
		}
		copy(n.Kids, scr.sorted)
	}
	n.recomputeRank()
}

func structuralKey(n *Node) string {
	return string(appendStructuralKey(nil, n))
}

// appendStructuralKey renders the structural key into buf without the
// intermediate strings that fmt.Sprintf and strings.Join would build.
func appendStructuralKey(buf []byte, n *Node) []byte {
	switch {
	case n.IsLeafReg():
		return appendPadded(append(buf, 'r'), int64(n.Leaf), 9)
	case n.Op == ir.OpLoadI:
		return appendPadded(append(buf, 'c'), n.Imm, 20)
	case n.Op == ir.OpLoadF:
		return fmt.Appendf(buf, "f%020g", n.FImm)
	}
	buf = append(buf, 'o')
	if n.Op < 100 {
		buf = append(buf, '0')
	}
	if n.Op < 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendInt(buf, int64(n.Op), 10)
	for _, k := range n.Kids {
		buf = append(buf, '|')
		buf = appendStructuralKey(buf, k)
	}
	return buf
}

// appendPadded appends v in decimal, zero-padded to width characters
// with the sign first: the bytes fmt's %0<width>d writes.
func appendPadded(buf []byte, v int64, width int) []byte {
	var digits [20]byte
	mag := uint64(v)
	if v < 0 {
		buf = append(buf, '-')
		mag = -mag
		width--
	}
	d := strconv.AppendUint(digits[:0], mag, 10)
	for range width - len(d) {
		buf = append(buf, '0')
	}
	return append(buf, d...)
}

// maxDistributeSize caps tree growth during distribution; beyond this
// size distribution stops (a practical guard the paper's "fast
// heuristic" spirit permits).
const maxDistributeSize = 256

// distributeNode applies the paper's partial, rank-guided distribution
// of multiplication over addition: given a product with a low-ranked
// multiplier m and a sum s of higher rank, the sum's children with
// rank ≤ rank(m) stay grouped in a single product while each
// higher-ranked child gets its own product, e.g.
//
//	a + b×((c+d)+e)  →  a + b×(c+d) + b×e
//
// when a..d have rank 1 and e rank 2.  A full distribution "would
// result in extra multiplications without allowing any additional code
// motion", so grouping follows the multiplier's rank.
func distributeNode(n *Node, allowFloat bool, depth int) *Node {
	for i, k := range n.Kids {
		n.Kids[i] = distributeNode(k, allowFloat, depth+1)
	}
	n.recomputeRank()

	add, isMul := mulAddPair(n.Op)
	if !isMul || !assocOK(add, allowFloat) || n.Size() > maxDistributeSize {
		return n
	}
	// Locate a sum child whose rank exceeds the combined rank of all
	// remaining (multiplier) children.
	sumIdx := -1
	for i, k := range n.Kids {
		if k.Op == add && len(k.Kids) > 1 {
			if sumIdx < 0 || k.Rank > n.Kids[sumIdx].Rank {
				sumIdx = i
			}
		}
	}
	if sumIdx < 0 {
		return n
	}
	sum := n.Kids[sumIdx]
	mulKids := make([]*Node, 0, len(n.Kids)-1)
	mulRank := 0
	for i, k := range n.Kids {
		if i == sumIdx {
			continue
		}
		mulKids = append(mulKids, k)
		if k.Rank > mulRank {
			mulRank = k.Rank
		}
	}
	if len(mulKids) == 0 || mulRank >= sum.Rank {
		return n // only distribute a low-ranked multiplier over a higher-ranked sum
	}
	// Partition the sum's children by the multiplier's rank.
	var low, high []*Node
	for _, k := range sum.Kids {
		if k.Rank <= mulRank {
			low = append(low, k)
		} else {
			high = append(high, k)
		}
	}
	if len(high) == 0 {
		return n
	}
	// Profitability: distribution pays only when it can enable motion —
	// either a low-ranked group exists (m×(low part) hoists) or the
	// high children have different ranks (separating them lets the
	// coarser-ranked products hoist farther once the enclosing sum is
	// re-sorted).  When every child shares one rank above the
	// multiplier, distributing "would result in extra multiplications
	// without allowing any additional code motion" (§3.1) — the
	// c×(b−a) shape in golden-section search is the classic instance.
	if len(low) == 0 {
		minR, maxR := high[0].Rank, high[0].Rank
		for _, k := range high[1:] {
			if k.Rank < minR {
				minR = k.Rank
			}
			if k.Rank > maxR {
				maxR = k.Rank
			}
		}
		if minR == maxR {
			return n
		}
	}
	makeProduct := func(term *Node) *Node {
		kids := make([]*Node, 0, len(mulKids)+1)
		kids = append(kids, cloneNodes(mulKids)...)
		kids = append(kids, term)
		p := NewNode(n.Op, kids...)
		return distributeNode(p, allowFloat, depth+1)
	}
	terms := make([]*Node, 0, len(high)+1)
	if len(low) > 0 {
		var lowTerm *Node
		if len(low) == 1 {
			lowTerm = low[0]
		} else {
			lowTerm = NewNode(add, low...)
		}
		terms = append(terms, makeProduct(lowTerm))
	}
	for _, h := range high {
		terms = append(terms, makeProduct(h))
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return NewNode(add, terms...)
}

func cloneNodes(ns []*Node) []*Node {
	out := make([]*Node, len(ns))
	for i, n := range ns {
		out[i] = n.Clone()
	}
	return out
}

// Clone deep-copies a tree.
func (n *Node) Clone() *Node {
	cp := *n
	cp.Kids = cloneNodes(n.Kids)
	return &cp
}
