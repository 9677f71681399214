package cfg

import "repro/internal/ir"

// Loop describes one natural loop.
type Loop struct {
	Header *ir.Block
	// Blocks is the loop body including the header.
	Blocks []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Depth is 1 for outermost loops.
	Depth int
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool {
	for _, x := range l.Blocks {
		if x == b {
			return true
		}
	}
	return false
}

// LoopInfo maps blocks to the loops containing them.
type LoopInfo struct {
	Loops []*Loop
	// innermost[b.ID] is the innermost loop containing b, or nil.
	innermost []*Loop
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (li *LoopInfo) InnermostLoop(b *ir.Block) *Loop {
	if b.ID >= len(li.innermost) {
		return nil
	}
	return li.innermost[b.ID]
}

// Depth returns the loop-nesting depth of b (0 outside all loops).
func (li *LoopInfo) Depth(b *ir.Block) int {
	if l := li.InnermostLoop(b); l != nil {
		return l.Depth
	}
	return 0
}

// FindLoops identifies natural loops from back edges (edges t→h where h
// dominates t), merging loops that share a header, and nests them.
// Back edges are found in the reverse postorder dom was built over.
func FindLoops(f *ir.Func, dom *DomTree) *LoopInfo {
	li := &LoopInfo{innermost: make([]*Loop, len(f.Blocks))}
	byHeader := map[*ir.Block]*Loop{}

	for _, b := range dom.rpo {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: []*ir.Block{s}}
				byHeader[s] = l
				li.Loops = append(li.Loops, l)
			}
			// Collect the natural loop of edge b→s: all blocks that
			// reach b without passing through s.
			inLoop := map[*ir.Block]bool{s: true}
			for _, blk := range l.Blocks {
				inLoop[blk] = true
			}
			stack := []*ir.Block{}
			if !inLoop[b] {
				inLoop[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !inLoop[p] {
						inLoop[p] = true
						stack = append(stack, p)
					}
				}
			}
			l.Blocks = l.Blocks[:0]
			for _, blk := range f.Blocks {
				if inLoop[blk] {
					l.Blocks = append(l.Blocks, blk)
				}
			}
		}
	}

	// Nest loops: loop A is inside loop B if A's header is in B's body
	// and A != B.  Choose the smallest enclosing body as parent.
	for _, a := range li.Loops {
		for _, b := range li.Loops {
			if a == b || !b.Contains(a.Header) {
				continue
			}
			if a.Parent == nil || len(b.Blocks) < len(a.Parent.Blocks) {
				a.Parent = b
			}
		}
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	for _, l := range li.Loops {
		for _, b := range l.Blocks {
			cur := li.innermost[b.ID]
			if cur == nil || l.Depth > cur.Depth {
				li.innermost[b.ID] = l
			}
		}
	}
	return li
}
