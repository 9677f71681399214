// Package coalesce implements Chaitin-style copy coalescing, the
// "coalescing phase of a Chaitin-style global register allocator" the
// paper relies on to "remove unnecessary copy instructions" (§3.2,
// Figure 10).  Two names joined by a copy are merged when they do not
// interfere; merging renames every occurrence and deletes the copy.
package coalesce

import (
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
// are left untouched.
func Run(f *ir.Func) Stats {
	return RunWith(f, analysis.NewCache(f))
}

// RunWith is Run drawing liveness from the given cache.  Each mutating
// round marks the function so the next round recomputes liveness; the
// final (no-op) round leaves valid liveness cached for later passes.
func RunWith(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpPhi {
				return st
			}
		}
	}
	g := &interference{pairs: make(map[uint64]struct{})}
	for {
		st.Rounds++
		merged := coalesceRound(f, ac, g, &st)
		if !merged {
			return st
		}
	}
}

// interference is a sparse symmetric adjacency over registers: a hash
// set of packed register pairs answers membership, and an index-linked
// edge list drives neighbor iteration.  Edges live in two flat arrays
// (to, next) threaded through per-register head indices, so adding an
// edge never allocates beyond the amortized growth of those arrays —
// per-register append slices would pay a grow-allocation per register
// instead.  All storage survives round over round (reset, not
// reallocated).
type interference struct {
	pairs map[uint64]struct{}
	head  []int32 // first edge index per register, -1 when none
	to    []ir.Reg
	next  []int32
}

func pairKey(a, b ir.Reg) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// reset empties the graph and re-dimensions it for nr registers.
func (g *interference) reset(nr int) {
	clear(g.pairs)
	if cap(g.head) < nr {
		g.head = make([]int32, nr)
	} else {
		g.head = g.head[:nr]
	}
	for i := range g.head {
		g.head[i] = -1
	}
	g.to = g.to[:0]
	g.next = g.next[:0]
}

func (g *interference) add(a, b ir.Reg) {
	if a == b {
		return
	}
	k := pairKey(a, b)
	if _, dup := g.pairs[k]; dup {
		return
	}
	g.pairs[k] = struct{}{}
	g.to = append(g.to, b)
	g.next = append(g.next, g.head[a])
	g.head[a] = int32(len(g.to) - 1)
	g.to = append(g.to, a)
	g.next = append(g.next, g.head[b])
	g.head[b] = int32(len(g.to) - 1)
}

func (g *interference) has(a, b ir.Reg) bool {
	_, ok := g.pairs[pairKey(a, b)]
	return ok
}

// union merges b's adjacency into a's (conservative after coalescing).
// New edges are appended past the end of b's chain, so the traversal
// never revisits them.
func (g *interference) union(a, b ir.Reg) {
	for e := g.head[b]; e >= 0; e = g.next[e] {
		if n := g.to[e]; n != a {
			g.add(a, n)
		}
	}
}

func coalesceRound(f *ir.Func, ac *analysis.Cache, g *interference, st *Stats) bool {
	lv := ac.Liveness()
	g.reset(f.NumRegs())

	// Build interference: at each definition of r, r interferes with
	// everything live after the instruction; for a copy d ← s, d does
	// not interfere with s on account of this def.
	live := dataflow.NewBitSet(f.NumRegs())
	for _, b := range f.Blocks {
		live.CopyFrom(lv.LiveOut[b.ID])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instr(i)
			defs := in.Args
			if in.Op != ir.OpEnter {
				defs = nil
				if in.Dst != ir.NoReg {
					defs = []ir.Reg{in.Dst}
				}
			}
			for _, d := range defs {
				skip := ir.NoReg
				if in.Op == ir.OpCopy {
					skip = in.Args[0]
				}
				live.ForEach(func(l int) {
					if ir.Reg(l) != skip {
						g.add(d, ir.Reg(l))
					}
				})
			}
			for _, d := range defs {
				live.Clear(int(d))
			}
			if in.Op != ir.OpEnter {
				for _, a := range in.Args {
					live.Set(int(a))
				}
			}
		}
	}

	// Union-find over registers so multiple merges compose in one round.
	parent := make([]ir.Reg, f.NumRegs())
	for i := range parent {
		parent[i] = ir.Reg(i)
	}
	var find func(r ir.Reg) ir.Reg
	find = func(r ir.Reg) ir.Reg {
		if parent[r] != r {
			parent[r] = find(parent[r])
		}
		return parent[r]
	}

	merged := false
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op != ir.OpCopy {
				continue
			}
			d, s := find(in.Dst), find(in.Args[0])
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
				in.Args[i] = find(a)
			}
			if in.Dst != ir.NoReg {
				in.Dst = find(in.Dst)
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
		f.Params[i] = find(p)
	}
	// The register rewrites above bypass the Block helpers.
	f.MarkCodeMutated()
	return true
}
