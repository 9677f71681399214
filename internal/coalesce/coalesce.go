// Package coalesce implements Chaitin-style copy coalescing, the
// "coalescing phase of a Chaitin-style global register allocator" the
// paper relies on to "remove unnecessary copy instructions" (§3.2,
// Figure 10).  Two names joined by a copy are merged when they do not
// interfere; merging renames every occurrence and deletes the copy.
package coalesce

import (
	"math/bits"
	"slices"

	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Stats reports the copies removed.
type Stats struct {
	Coalesced int // copies removed by merging names
	SelfCopy  int // trivial "copy r => r" removed
	Rounds    int
}

// Run coalesces copies in f until no more merges are possible.  It
// must run on φ-free code (after SSA destruction); φ-bearing functions
// are left untouched.  Liveness comes from the given cache: each
// mutating round marks the function so the next round recomputes it,
// and the final (no-op) round leaves valid liveness cached for later
// passes.
func Run(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpPhi {
				return st
			}
		}
	}
	var g interference
	var c candidates
	for {
		st.Rounds++
		merged := coalesceRound(f, ac, &c, &g, &st)
		if !merged {
			return st
		}
	}
}

// candidates is the set of copy-related registers — every Dst and
// source of a copy — numbered densely in register order.  Only they can
// ever merge, so interference, liveness tracking and the union-find
// range over candidate indices alone.  Membership is one bit per
// register and index(r) is a rank query: the members counted in earlier
// words (rank) plus those below r in its own word.  The whole map costs
// under two bits per register, so the pass's own state does not grow with
// register numbers no copy names.  All storage survives round over
// round.
type candidates struct {
	words []uint64
	rank  []int32  // members in the words before each word, plus one
	regs  []ir.Reg // index → register; regs[0] stands for "none"
}

// reset collects f's copy-related registers.
func (c *candidates) reset(f *ir.Func) {
	n := (f.NumRegs() + 63) / 64
	c.words = slices.Grow(c.words[:0], n)[:n]
	c.rank = slices.Grow(c.rank[:0], n)[:n]
	clear(c.words)
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			if in := b.Fn.Instr(inID); in.Op == ir.OpCopy {
				c.words[in.Dst>>6] |= 1 << (in.Dst & 63)
				c.words[in.Args[0]>>6] |= 1 << (in.Args[0] & 63)
			}
		}
	}
	c.regs = append(c.regs[:0], ir.NoReg)
	for i, w := range c.words {
		c.rank[i] = int32(len(c.regs))
		for ; w != 0; w &= w - 1 {
			c.regs = append(c.regs, ir.Reg(i*64+bits.TrailingZeros64(w)))
		}
	}
}

// index returns r's candidate index in 1..len(regs)-1, or 0 when r is
// not a candidate.
func (c *candidates) index(r ir.Reg) int {
	w, bit := c.words[r>>6], uint64(1)<<(r&63)
	if w&bit == 0 {
		return 0
	}
	return int(c.rank[r>>6]) + bits.OnesCount64(w&(bit-1))
}

// interference is a sparse symmetric adjacency over candidate
// indices: a pairSet of packed index pairs answers membership, and an
// index-linked edge list drives neighbor iteration.  Edges live in two
// flat arrays (to, next) threaded through per-candidate head indices,
// so adding an edge never allocates beyond the amortized growth of
// those arrays — per-candidate append slices would pay a
// grow-allocation per candidate instead.  Memory is linear in
// candidates and edges (a candidates² bit matrix would need gigabytes
// for 10^5 copies); all storage survives round over round.
type interference struct {
	pairs pairSet
	head  []int32 // first edge index per candidate, -1 when none
	to    []int32
	next  []int32
}

// pairKey packs two candidate indices (from 1, so never 0), smaller first.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pairSet is an open-addressing set of nonzero keys: linear probing in
// a power-of-two table at most half full, 0 marking an empty slot.
type pairSet struct {
	slots []uint64
	n     int
}

// reset empties the set and makes room for hint keys; a table already
// large enough is kept, so a run sizes it once for its largest round.
func (s *pairSet) reset(hint int) {
	s.n = 0
	if 2*hint <= len(s.slots) {
		clear(s.slots)
	} else {
		s.slots = make([]uint64, max(16, 1<<bits.Len(uint(2*hint-1))))
	}
}

// find returns k's slot, or the empty slot where k belongs.  The first
// probe is the top bits of a Fibonacci hash, so keys that differ only
// in their high word spread as well as the rest.
func (s *pairSet) find(k uint64) int {
	mask := len(s.slots) - 1
	i := int(k * 0x9e3779b97f4a7c15 >> (64 - bits.Len(uint(mask))))
	for s.slots[i] != 0 && s.slots[i] != k {
		i = (i + 1) & mask
	}
	return i
}

func (s *pairSet) has(k uint64) bool { return s.n > 0 && s.slots[s.find(k)] == k }

// insert adds k and reports whether it was absent.
func (s *pairSet) insert(k uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.reset(max(8, len(old)))
		for _, o := range old {
			if o != 0 {
				s.slots[s.find(o)] = o
				s.n++
			}
		}
	}
	i := s.find(k)
	if s.slots[i] == k {
		return false
	}
	s.slots[i] = k
	s.n++
	return true
}

// reset empties the graph and re-dimensions it for n candidates.
func (g *interference) reset(n int) {
	g.pairs.reset(4 * n) // suite functions average 2.2 pairs per candidate
	if cap(g.head) < n {
		g.head = make([]int32, n)
	} else {
		g.head = g.head[:n]
	}
	for i := range g.head {
		g.head[i] = -1
	}
	g.to = g.to[:0]
	g.next = g.next[:0]
}

func (g *interference) add(a, b int) {
	if a == b {
		return
	}
	if !g.pairs.insert(pairKey(a, b)) {
		return
	}
	g.to = append(g.to, int32(b))
	g.next = append(g.next, g.head[a])
	g.head[a] = int32(len(g.to) - 1)
	g.to = append(g.to, int32(a))
	g.next = append(g.next, g.head[b])
	g.head[b] = int32(len(g.to) - 1)
}

func (g *interference) has(a, b int) bool {
	return g.pairs.has(pairKey(a, b))
}

// union merges b's adjacency into a's (conservative after coalescing).
// New edges are appended past the end of b's chain, so the traversal
// never revisits them.
func (g *interference) union(a, b int) {
	for e := g.head[b]; e >= 0; e = g.next[e] {
		if n := int(g.to[e]); n != a {
			g.add(a, n)
		}
	}
}

func coalesceRound(f *ir.Func, ac *analysis.Cache, c *candidates, g *interference, st *Stats) bool {
	lv := ac.Liveness()
	c.reset(f)
	n := len(c.regs)
	g.reset(n)

	// Build interference: at each definition of r, r interferes with
	// everything live after the instruction; for a copy d ← s, d does
	// not interfere with s on account of this def.  live holds the
	// live candidates only.
	live := dataflow.NewBitSet(n)
	for _, b := range f.Blocks {
		liveOut := lv.LiveOut.Row(b.ID)
		live.ClearAll()
		for k := 1; k < n; k++ {
			if liveOut.Has(int(c.regs[k])) {
				live.Set(k)
			}
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instr(i)
			defs := in.Args
			if in.Op != ir.OpEnter {
				defs = nil
				if in.Dst != ir.NoReg {
					defs = []ir.Reg{in.Dst}
				}
			}
			skip := 0
			if in.Op == ir.OpCopy {
				skip = c.index(in.Args[0])
			}
			for _, d := range defs {
				if dc := c.index(d); dc != 0 {
					live.ForEach(func(l int) {
						if l != skip {
							g.add(dc, l)
						}
					})
				}
			}
			for _, d := range defs {
				if dc := c.index(d); dc != 0 {
					live.Clear(dc)
				}
			}
			if in.Op != ir.OpEnter {
				for _, a := range in.Args {
					if k := c.index(a); k != 0 {
						live.Set(k)
					}
				}
			}
		}
	}

	// Union-find over candidates so multiple merges compose in one
	// round; rename maps any register to its merged name.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(k int) int
	find = func(k int) int {
		if parent[k] != k {
			parent[k] = find(parent[k])
		}
		return parent[k]
	}
	rename := func(r ir.Reg) ir.Reg {
		if k := c.index(r); k != 0 {
			return c.regs[find(k)]
		}
		return r
	}

	merged := false
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op != ir.OpCopy {
				continue
			}
			d, s := find(c.index(in.Dst)), find(c.index(in.Args[0]))
			if d == s {
				continue // already merged; copy removed below
			}
			if g.has(d, s) {
				continue
			}
			// Merge d into s.
			parent[d] = s
			g.union(s, d)
			merged = true
		}
	}
	if !merged {
		// Still remove degenerate self-copies.
		before := st.SelfCopy
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, inID := range b.Instrs {
				in := b.Fn.Instr(inID)
				if in.Op == ir.OpCopy && in.Dst == in.Args[0] {
					st.SelfCopy++
					continue
				}
				kept = append(kept, inID)
			}
			b.Instrs = kept
		}
		if st.SelfCopy > before {
			f.MarkCodeMutated()
		}
		return false
	}

	// Rewrite all registers through the union-find and drop copies
	// that became self-copies.
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			for i, a := range in.Args {
				in.Args[i] = rename(a)
			}
			if in.Dst != ir.NoReg {
				in.Dst = rename(in.Dst)
			}
			if in.Op == ir.OpCopy && in.Dst == in.Args[0] {
				st.Coalesced++
				continue
			}
			kept = append(kept, inID)
		}
		b.Instrs = kept
	}
	for i, p := range f.Params {
		f.Params[i] = rename(p)
	}
	// The register rewrites above bypass the Block helpers.
	f.MarkCodeMutated()
	return true
}
