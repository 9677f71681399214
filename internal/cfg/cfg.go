// Package cfg provides control-flow-graph analyses over the ir package:
// reverse-postorder numbering, dominator trees (Cooper–Harvey–Kennedy),
// dominance frontiers, natural-loop detection, critical-edge splitting
// and dead/empty block cleanup.
//
// The paper relies on these as substrate: ranks are assigned during a
// reverse-postorder traversal (§3.1), SSA construction needs dominance
// frontiers, and PRE's edge placement requires splittable edges.
package cfg

import "repro/internal/ir"

// ReversePostorder returns the blocks of f reachable from the entry in
// reverse postorder.  The entry block is always first.
func ReversePostorder(f *ir.Func) []*ir.Block {
	seen := make([]bool, len(f.Blocks))
	post := make([]*ir.Block, 0, len(f.Blocks))

	type frame struct {
		b    *ir.Block
		next int
	}
	stack := []frame{{b: f.Entry()}}
	seen[f.Entry().ID] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.b.Succs) {
			s := top.b.Succs[top.next]
			top.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// RemoveUnreachable deletes blocks not reachable from the entry,
// unlinking their edges (and trimming φ-operands in reachable targets).
// It returns the number of blocks removed.  A call that removes nothing
// leaves the function's analysis generations untouched.  rpo is the
// reachability witness and must be a current reverse postorder of f
// (analysis.Cache.RemoveUnreachable passes its cached one).
func RemoveUnreachable(f *ir.Func, rpo []*ir.Block) int {
	reach := make([]bool, len(f.Blocks))
	for _, b := range rpo {
		reach[b.ID] = true
	}
	removed := 0
	for _, b := range f.Blocks {
		if reach[b.ID] {
			continue
		}
		removed++
		for len(b.Succs) > 0 {
			ir.RemoveEdge(b, b.Succs[0])
		}
	}
	if removed > 0 {
		f.RemoveBlocks(func(b *ir.Block) bool { return !reach[b.ID] })
	}
	return removed
}
