package pre

// The Lospre strategy is speculative partial redundancy elimination
// ("lospre", after Krause's lifetime-optimal speculative PRE).
//
// Instead of the classical four-problem dataflow cascade, each
// expression is placed by solving one minimum s-t cut over a small
// graph with two nodes per block — N(b) for the block's entry, X(b)
// for its exit — plus a use node U(b) per block that computes the
// expression.  A node on the sink side of the cut means "the temporary
// h holds the expression's value here".  Cut arcs are exactly the
// placement costs:
//
//   - X(p)→N(b), capacity freq(edge): insert h ← e on the CFG edge;
//   - N(b)→X(b), capacity freq(b), present when b is transparent and
//     does not compute e: insert h ← e at the bottom of b;
//   - N(b)→U(b), capacity freq(b), present when e is upward-exposed
//     in b: leave the occurrence computing (the status quo).
//
// Forced labels encode the program facts as infinite arcs: s→N(entry)
// (nothing is available at function entry), s→X(b) when b kills the
// operands without recomputing, s→N/X at points where the operands are
// not definitely assigned, and — for expressions whose speculation
// could introduce a trap (loads, integer div/mod) — s→N/X at points
// that are not down-safe, which collapses the solution to classical
// non-speculative motion for exactly those expressions.  U(b)→t and
// X(b)→t (when b computes e) are the sink-side forcings.  Block
// frequencies are loop-depth estimates (8^depth), so the min cut
// naturally pays one insertion outside a loop to spare a computation
// inside it, including on paths that did not compute e — that is the
// speculation classical PRE's down-safety forbids.
//
// The cut is solved by a budgeted Dinic (see mincut.go): linear work
// on the structured CFGs the linear-time formulation targets, with a
// safe fallback — leave the expression untouched — when the budget
// trips on an adversarial graph.  An expression is only transformed
// when its max flow is strictly below the status-quo cost, which both
// skips useless churn and guarantees the fixpoint driver terminates.
// Every transformed expression leaves some use reading the temporary,
// so a round that transforms anything reports Replaced > 0.

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// maxDepth caps the loop-depth frequency exponent so freq stays far
// below the forced-label capacity.
const maxDepth = 12

// speculatable reports whether computing op on a path that did not
// originally compute it can trap: loads (bounds) and integer division
// and modulus (zero divisor) cannot be speculated; every other pure
// operation is total in internal/interp.
func speculatable(op ir.Op) bool {
	return !op.IsLoad() && op != ir.OpDiv && op != ir.OpMod
}

// Node numbering within the placement graph.
const (
	srcNode  = 0
	sinkNode = 1
)

func nNode(b *ir.Block) int { return 2 + 3*b.ID }
func xNode(b *ir.Block) int { return 3 + 3*b.ID }
func uNode(b *ir.Block) int { return 4 + 3*b.ID }

// lospreRound runs one round of speculative PRE.
func lospreRound(r *round) { lospreRoundWith(r, 0) }

// lospreRoundWith is lospreRound with a test seam: forcedBudgetTrips > 0
// makes the first that many cut solves report budget exhaustion,
// exercising the conservative fallback without an adversarial graph.
func lospreRoundWith(r *round, forcedBudgetTrips int) {
	f, ac, u := r.f, r.ac, r.u
	n := u.NumExprs()
	rpo := ac.RPO()
	nb := len(f.Blocks)

	// Down-safety (anticipability), needed to pin the non-speculatable
	// expressions to classical placement.
	antin, antout := u.Anticipability(rpo, r.sets)

	// Definite assignment of registers (forward, all-paths): an
	// insertion may only be placed where the expression's operands are
	// certainly defined, or checked mode would reject the output.
	nr := u.NumRegSlots()
	def := func(set dataflow.BitSet, reg ir.Reg) {
		if s := u.RegSlot(reg); s >= 0 {
			set.Set(s)
		}
	}
	defs := r.sets.Family(nb, nr)
	for _, b := range f.Blocks {
		set := defs.Row(b.ID)
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpEnter {
				for _, p := range in.Args {
					def(set, p)
				}
			}
			def(set, in.Dst)
		}
	}
	defin, defout := r.sets.Family(nb, nr), r.sets.Family(nb, nr)
	defout.SetAll()
	dataflow.SolveForward(rpo, dataflow.MeetAll, defin, defout,
		func(b *ir.Block, in, dst dataflow.BitSet) {
			dst.CopyFrom(in)
			dst.Union(defs.Row(b.ID))
		})
	definedAt := func(sets dataflow.BitMatrix, b *ir.Block, e int) bool {
		k := u.Keys[e]
		if k.A != ir.NoReg && !sets.Row(b.ID).Has(u.RegSlot(k.A)) {
			return false
		}
		if k.B != ir.NoReg && !sets.Row(b.ID).Has(u.RegSlot(k.B)) {
			return false
		}
		return true
	}

	// Execution frequency estimates from loop depth.
	loops := ac.Loops()
	freq := make([]int64, nb)
	for _, b := range f.Blocks {
		d := loops.Depth(b)
		if d > maxDepth {
			d = maxDepth
		}
		freq[b.ID] = int64(1) << uint(3*d)
	}

	// Per-expression placement decisions, accumulated and applied in
	// one rewrite pass at the end.
	transformed := r.sets.Set(n)
	navail := r.family()        // N(b) on the sink side: h valid at entry
	topIns := make([][]int, nb) // insertions at block top (edge, single-pred side)
	botIns := make([][]int, nb) // insertions before the terminator
	g := newMincut(2 + 3*nb)
	mark := make([]bool, 2+3*nb)

	for e := 0; e < n; e++ {
		spec := speculatable(u.Keys[e].Op)
		trivial := int64(0)
		for _, b := range f.Blocks {
			if u.AntLoc.Row(b.ID).Has(e) {
				trivial += freq[b.ID]
			}
		}
		if trivial == 0 {
			// Computed only after kills in its blocks: no upward-exposed
			// use to redirect, nothing to gain.
			continue
		}

		g.reset()
		entry := f.Entry()
		g.addEdge(srcNode, nNode(entry), inf)
		for _, b := range f.Blocks {
			comp := u.Comp.Row(b.ID).Has(e)
			transp := u.Transp.Row(b.ID).Has(e)
			if !definedAt(defin, b, e) || (!spec && !antin.Row(b.ID).Has(e)) {
				if b != entry {
					g.addEdge(srcNode, nNode(b), inf)
				}
			}
			switch {
			case comp:
				g.addEdge(xNode(b), sinkNode, inf)
			case !transp || !definedAt(defout, b, e) || (!spec && !antout.Row(b.ID).Has(e)):
				g.addEdge(srcNode, xNode(b), inf)
			default:
				g.addEdge(nNode(b), xNode(b), freq[b.ID])
			}
			if u.AntLoc.Row(b.ID).Has(e) {
				g.addEdge(nNode(b), uNode(b), freq[b.ID])
				g.addEdge(uNode(b), sinkNode, inf)
			}
		}
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				g.addEdge(xNode(b), nNode(s), min(freq[b.ID], freq[s.ID]))
			}
		}

		flow, ok := g.maxflow(srcNode, sinkNode)
		if forcedBudgetTrips > 0 {
			forcedBudgetTrips--
			ok = false
		}
		if !ok {
			r.st.Fallbacks++
			continue
		}
		if flow >= trivial {
			continue // no strict improvement: keep the status quo
		}

		g.minCutReachable(srcNode, mark)
		transformed.Set(e)
		r.st.Transformed++
		for _, b := range f.Blocks {
			if !mark[nNode(b)] {
				navail.Row(b.ID).Set(e)
			}
			if mark[nNode(b)] && !mark[xNode(b)] && !u.Comp.Row(b.ID).Has(e) {
				botIns[b.ID] = append(botIns[b.ID], e)
			}
		}
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				if !mark[xNode(b)] || mark[nNode(s)] {
					continue
				}
				// Insertion on the edge b→s; critical edges are split,
				// so one endpoint owns the edge exclusively.
				if len(b.Succs) == 1 {
					botIns[b.ID] = append(botIns[b.ID], e)
				} else {
					topIns[s.ID] = append(topIns[s.ID], e)
				}
			}
		}
	}
	if transformed.Empty() {
		return
	}

	transformed.ForEach(func(e int) { r.temp[e] = f.NewReg() })

	for _, b := range f.Blocks {
		for _, e := range topIns[b.ID] {
			r.insert(b, topPos(b), e)
		}
		for _, e := range botIns[b.ID] {
			r.insert(b, bottom, e)
		}
	}

	// Rewrite every occurrence of a transformed expression.  Where the
	// cut proved h valid the occurrence becomes a copy; elsewhere it
	// recomputes through h so downstream labels stay honest (the Comp
	// forcing assumed exactly this).
	r.rewrite(func(b *ir.Block, valid dataflow.BitSet) {
		valid.CopyFrom(navail.Row(b.ID))
	}, func(e int, valid bool) action {
		switch {
		case !transformed.Has(e):
			return keep
		case valid:
			return replace
		}
		return compute
	})
}
