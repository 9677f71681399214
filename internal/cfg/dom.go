package cfg

import "repro/internal/ir"

// DomTree holds immediate-dominator and dominance-frontier information
// for the reachable blocks of a function.
type DomTree struct {
	fn *ir.Func
	// idom[b.ID] is b's immediate dominator; the entry maps to itself.
	// Unreachable blocks map to nil.
	idom []*ir.Block
	// children[b.ID] lists the blocks immediately dominated by b.
	children [][]*ir.Block
	// frontier[b.ID] is b's dominance frontier.
	frontier [][]*ir.Block
	// rpo numbers for the intersect walk.
	rpoNum []int
	rpo    []*ir.Block
}

// BuildDomTree computes dominators with the Cooper–Harvey–Kennedy
// iterative algorithm ("A Simple, Fast Dominance Algorithm") and
// dominance frontiers with their two-finger method.  rpo must be a
// current reverse postorder of f; the tree keeps it, read-only.
func BuildDomTree(f *ir.Func, rpo []*ir.Block) *DomTree {
	t := &DomTree{fn: f, rpo: rpo}
	t.rpoNum = make([]int, len(f.Blocks))
	for i := range t.rpoNum {
		t.rpoNum[i] = -1
	}
	for i, b := range t.rpo {
		t.rpoNum[b.ID] = i
	}
	t.idom = make([]*ir.Block, len(f.Blocks))
	entry := f.Entry()
	t.idom[entry.ID] = entry

	changed := true
	for changed {
		changed = false
		for _, b := range t.rpo[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if t.rpoNum[p.ID] < 0 || t.idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}

	// Child lists are views into one flat array, built by counting
	// sort, instead of len(f.Blocks) independently grown slices.
	nb := len(f.Blocks)
	offs := make([]int32, nb+1)
	for _, b := range t.rpo[1:] {
		if id := t.idom[b.ID]; id != nil {
			offs[id.ID+1]++
		}
	}
	for i := 1; i <= nb; i++ {
		offs[i] += offs[i-1]
	}
	flat := make([]*ir.Block, offs[nb])
	fill := make([]int32, nb)
	copy(fill, offs[:nb])
	for _, b := range t.rpo[1:] {
		if id := t.idom[b.ID]; id != nil {
			flat[fill[id.ID]] = b
			fill[id.ID]++
		}
	}
	t.children = make([][]*ir.Block, nb)
	for i := range t.children {
		t.children[i] = flat[offs[i]:offs[i+1]:offs[i+1]]
	}

	t.frontier = make([][]*ir.Block, len(f.Blocks))
	for _, b := range t.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if t.rpoNum[p.ID] < 0 {
				continue
			}
			runner := p
			for runner != t.idom[b.ID] {
				t.frontier[runner.ID] = appendUnique(t.frontier[runner.ID], b)
				runner = t.idom[runner.ID]
			}
		}
	}
	return t
}

func appendUnique(s []*ir.Block, b *ir.Block) []*ir.Block {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}

func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpoNum[a.ID] > t.rpoNum[b.ID] {
			a = t.idom[a.ID]
		}
		for t.rpoNum[b.ID] > t.rpoNum[a.ID] {
			b = t.idom[b.ID]
		}
	}
	return a
}

// IDom returns b's immediate dominator (nil for the entry block and for
// unreachable blocks).
func (t *DomTree) IDom(b *ir.Block) *ir.Block {
	id := t.idom[b.ID]
	if id == b {
		return nil
	}
	return id
}

// Children returns the blocks whose immediate dominator is b.
func (t *DomTree) Children(b *ir.Block) []*ir.Block { return t.children[b.ID] }

// Frontier returns b's dominance frontier.
func (t *DomTree) Frontier(b *ir.Block) []*ir.Block { return t.frontier[b.ID] }

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if t.rpoNum[a.ID] < 0 || t.rpoNum[b.ID] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		id := t.idom[b.ID]
		if id == nil || id == b {
			return false
		}
		b = id
	}
}

// Preorder returns a dominator-tree preorder walk starting at the entry.
func (t *DomTree) Preorder() []*ir.Block {
	var order []*ir.Block
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		order = append(order, b)
		for _, c := range t.children[b.ID] {
			walk(c)
		}
	}
	walk(t.fn.Entry())
	return order
}
