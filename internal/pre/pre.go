// Package pre implements partial redundancy elimination with three
// placement strategies behind one fixpoint driver:
//
//   - Drechsler (drechsler.go) is the paper's own choice (§4: "Our
//     implementation of PRE uses a variation described by Drechsler
//     and Stadel"): Morel–Renvoise redundancy placed on edges by the
//     unidirectional lazy-code-motion equations, with the §2.2 naming
//     discipline (Mode A) deleting redundant computations outright.
//   - LCM (lcm.go) is Knoop–Rüthing–Steffen lazy code motion in its
//     block-granularity form: computationally optimal like Drechsler
//     and additionally lifetime-optimal, with isolated insertions
//     pruned.
//   - Lospre (lospre.go, mincut.go) is speculative PRE after Krause:
//     one minimum s-t cut per expression over a frequency-weighted
//     placement graph, allowed to insert on paths that never computed
//     the expression when that is cheaper and the operation cannot
//     trap.
//
// Every strategy works on the same footing: unreachable blocks are
// removed and critical edges split, so every insertion point is a block
// boundary; the expression universe and its local properties come from
// dataflow.BuildUniverse; anticipability (down-safety) comes from
// Universe.Anticipability.  A round inserts h ← e computations and then
// walks the blocks once, rewriting each original occurrence of a
// placed expression (see rewrite).  A single round moves each
// expression at most one level — the computation of an operand blocks
// upward exposure of its parents — so RunToFixpoint repeats rounds,
// which is what hoists whole invariant chains out of loops, as in the
// paper's Figure 9.  None of the strategies lengthens an execution
// path the original code did not already take through the expression,
// except lospre's deliberate, trap-free speculation.
//
// The rounds cost what changed.  A run numbers the universe once and
// refreshes local properties only in the blocks a round changed, and a
// round after the first solves only the expressions with an operand
// the previous round redefined, plus, under Drechsler's naming
// discipline, those that gained a canonical destination.  The
// invariant that makes this exact: every strategy places an expression
// from that expression's own local properties (and its operands'
// definitions) alone, independently of every other expression, and a
// round leaves each expression it solved where a further round would
// put it.  So an expression none of whose inputs changed is already in
// place, and solving it again would find nothing.  The run stops when
// a round changes nothing or leaves nothing to solve.
//
// A later round costs what it solves, not what the function holds.  It
// lists its expressions from the universe's per-block occurrence
// vectors instead of scanning every instruction; the naming
// discipline's counts are kept across rounds, each block's share taken
// out before a round first changes it and put back afterwards; its
// bit matrices and restricted universe reuse storage the run keeps,
// sized for its largest round; and the worklist solvers visit a block
// again only when a neighbour's set changed.  What still scales with
// the function is dense per-block work over the round's few
// expressions: each solve's first sweep, gathering the local
// properties, and the placement loops over blocks and edges.
package pre

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Stats reports what PRE did to a function: one round, or summed over
// the rounds of RunToFixpoint.
type Stats struct {
	Exprs         int // distinct expressions the run numbered
	Solved        int // expressions solved, summed over rounds
	Inserted      int // h ← e computations inserted
	Deleted       int // Mode A computations removed outright
	Replaced      int // occurrences turned into a copy from the temporary
	Rewritten     int // occurrences turned into h ← e; t ← copy h
	ModeA         int // solved expressions handled under the naming discipline (last round)
	Transformed   int // lospre: expressions whose cut beat the status quo
	Fallbacks     int // lospre: expressions skipped because the cut budget tripped
	EdgesSplit    int // critical edges split
	RemovedBlocks int // unreachable blocks dropped before analysis
	Rounds        int // rounds run by RunToFixpoint
}

// Changed reports whether the run made optimization progress — the
// fixpoint driver's termination condition.
func (s Stats) Changed() bool { return s.Inserted+s.Deleted+s.Replaced+s.Rewritten > 0 }

// add folds one round's stats into a running total.
func (s *Stats) add(r Stats) {
	s.Exprs = r.Exprs
	s.Solved += r.Solved
	s.Inserted += r.Inserted
	s.Deleted += r.Deleted
	s.Replaced += r.Replaced
	s.Rewritten += r.Rewritten
	s.ModeA = r.ModeA
	s.Transformed += r.Transformed
	s.Fallbacks += r.Fallbacks
	s.EdgesSplit += r.EdgesSplit
	s.RemovedBlocks += r.RemovedBlocks
	s.Rounds++
}

// A Strategy is one placement algorithm: the function that places one
// round's expressions, the most rounds RunToFixpoint may spend, and
// whether placement reads the naming discipline (CanonicalDsts).
type Strategy struct {
	place     func(r *round)
	maxRounds int
	naming    bool
}

// The placement strategies.  Each Drechsler or LCM round can hoist one
// more level of an expression chain, so their bound is the deepest
// expression tree worth chasing; lospre's strict-improvement guard
// lowers the modeled cost every round, so its bound is a backstop.
var (
	Drechsler = Strategy{drechslerRound, 32, true}
	LCM       = Strategy{lcmRound, 32, false}
	Lospre    = Strategy{lospreRound, 8, false}
)

// RunToFixpoint applies the strategy's rounds to f, drawing CFG
// analyses from ac, until a round makes no progress, no expression is
// left to solve, or the round bound is reached.  It checks ctx before
// every round and stops once ctx is done, leaving the function valid;
// the caller reports ctx.Err().
func RunToFixpoint(ctx context.Context, f *ir.Func, ac *analysis.Cache, s Strategy) Stats {
	var total Stats
	if ctx.Err() != nil {
		return total
	}
	p := &driver{f: f, ac: ac, s: s}
	defer p.release()
	for total.Rounds < s.maxRounds && ctx.Err() == nil {
		st, solved := p.round()
		if !solved {
			total.EdgesSplit += st.EdgesSplit
			total.RemovedBlocks += st.RemovedBlocks
			break
		}
		total.add(st)
		if !st.Changed() {
			break
		}
	}
	return total
}

// driver is what a RunToFixpoint run keeps across its rounds.  The
// expression universe is numbered once (each instruction's key hashed
// once) and its local properties are refreshed only in the blocks a
// round changed.  Each round solves only the expressions the last
// round can have affected: those reading a register it redefined (the
// destination of an occurrence it inserted, removed or rewrote), plus,
// under the naming discipline, those that gained a canonical
// destination.  That is exact because every strategy places each
// expression from that expression's own local properties alone, and a
// round's placement is final for the inputs it saw: an expression whose
// inputs did not change is where the last round that solved it put it,
// and solving it again would find nothing.
//
// The rest of what a round needs is kept too, so that a later round
// costs what it solves: the counts the canonical destinations are
// decided from (patched from the blocks a round touched), and the
// storage of the round's bit matrices, its restricted universe and
// its per-expression and per-block tables, sized for the largest round
// so far.
type driver struct {
	f  *ir.Func
	ac *analysis.Cache
	s  Strategy

	u        *dataflow.Universe // every expression of f; nil before the first round
	regIndex []int              // u's register index, borrowed from ac
	counts   *canonCounts       // naming strategies: the counts behind canon
	canon    []ir.Reg           // naming strategies: the canonical destinations at the last round

	// What the last round did: the registers it redefined and the
	// blocks whose instructions it changed.
	redefined []ir.Reg
	changed   []*ir.Block

	// Round storage.
	sets             dataflow.FamilyStore
	ids              []int32
	temp, roundCanon []ir.Reg
	occurs, touched  []bool
}

// release returns the run's borrowed buffers to the analysis cache.
func (p *driver) release() {
	if p.u != nil {
		p.ac.ReturnInts(p.regIndex)
	}
	if p.counts != nil {
		p.counts.release(p.ac)
		p.ac.ReturnRegs(p.canon)
	}
}

// round runs the next round.  It reports false, placing nothing, when
// no expression needs solving; the stats then carry only the CFG
// normalization.
func (p *driver) round() (Stats, bool) {
	f, ac := p.f, p.ac
	var st Stats
	st.RemovedBlocks = ac.RemoveUnreachable()
	st.EdgesSplit = cfg.SplitCriticalEdges(f)
	first := p.u == nil
	switch {
	case first:
		p.regIndex = ac.BorrowInts(f.NumRegs())
		p.u = dataflow.BuildUniverse(f, p.regIndex)
		p.recount()
	case st.RemovedBlocks+st.EdgesSplit > 0:
		p.u.Refresh(f.Blocks)
		p.recount()
	}
	u, n := p.u, p.u.NumExprs()
	st.Exprs = n

	p.sets.Reset()
	dirty := p.sets.Set(n)
	for _, r := range p.redefined {
		u.AddReaders(dirty, r)
	}
	if p.counts != nil {
		// A canonical destination that appeared or moved makes Mode A
		// newly applicable, and Mode A also deletes block-local repeats
		// the placement equations never see; one that disappeared
		// leaves the expression to the equations, whose inputs did not
		// change.
		last := p.canon
		p.canon = ac.BorrowRegs(n)
		p.counts.names(p.canon)
		if last != nil {
			for e, t := range p.canon {
				if t != last[e] && t != ir.NoReg {
					dirty.Set(e)
				}
			}
			ac.ReturnRegs(last)
		}
	}
	// Number the round's expressions in order of first occurrence, the
	// order a universe built afresh now would give them, so placements
	// and temporaries come out in the same order as a full re-solve,
	// and note the blocks they occur in.  The first round solves every
	// expression of a universe just built in that order.
	nb := len(f.Blocks)
	p.occurs = resize(p.occurs, nb)
	ids := p.ids[:0]
	if first {
		for e := range n {
			ids = append(ids, int32(e))
		}
		for _, b := range f.Blocks {
			p.occurs[b.ID] = u.Computes(b)
		}
	} else {
		ids = u.Occurrences(dirty, ids, p.occurs)
	}
	p.ids = ids
	if len(ids) == 0 {
		return st, false
	}

	p.touched = resize(p.touched, nb)
	p.temp = resize(p.temp, len(ids))
	r := &round{
		f:       f,
		ac:      ac,
		u:       u.Restrict(ids, &p.sets),
		sets:    &p.sets,
		st:      st,
		temp:    p.temp,
		fresh:   ir.InstrID(f.NumInstrIDs()),
		occurs:  p.occurs,
		touched: p.touched,
	}
	if !first {
		r.counts = p.counts
	}
	r.st.Solved = len(ids)
	if p.canon != nil {
		p.roundCanon = resize(p.roundCanon, len(ids))
		r.canon = p.roundCanon
		for i, e := range ids {
			r.canon[i] = p.canon[e]
		}
	}
	p.s.place(r)

	// Bring the universe and the counts up to date with what the round
	// changed.  An edge the placement split renumbers nothing but adds
	// a block the touched marks do not cover.  The first round usually
	// changes most blocks, so its counts are taken afresh rather than
	// patched block by block.
	p.redefined = r.redefined
	p.changed = p.changed[:0]
	for _, b := range f.Blocks {
		if b.ID < len(r.touched) && r.touched[b.ID] {
			p.changed = append(p.changed, b)
		}
	}
	switch {
	case r.st.EdgesSplit > st.EdgesSplit:
		u.Refresh(f.Blocks)
		p.recount()
	case first:
		u.Refresh(p.changed)
		if len(p.changed) > 0 {
			p.recount()
		}
	default:
		u.Refresh(p.changed)
		if p.counts != nil {
			p.counts.fit(ac)
			for _, b := range p.changed {
				p.counts.count(b)
			}
		}
	}
	return r.st, true
}

// recount counts the canonical destinations' inputs afresh over the
// whole function, for a naming strategy.
func (p *driver) recount() {
	if !p.s.naming {
		return
	}
	if p.counts == nil {
		p.counts = newCanonCounts(p.u, p.ac)
	} else {
		p.counts.reset(p.ac)
	}
	for _, b := range p.f.Blocks {
		p.counts.count(b)
	}
}

// resize returns buf with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// round is the state one strategy round shares with the helpers that
// apply its placement.
type round struct {
	f      *ir.Func
	ac     *analysis.Cache
	u      *dataflow.Universe    // the expressions this round solves
	sets   *dataflow.FamilyStore // where the round's bitsets come from
	canon  []ir.Reg              // naming strategies: each expression's canonical destination
	st     Stats
	temp   []ir.Reg   // per expression: the register carrying its value
	fresh  ir.InstrID // instructions from here on were created this round
	occurs []bool     // by block ID: the block computes one of u's expressions

	// What the round changed, for the next one: the blocks whose
	// instructions it changed and the registers it redefined.
	touched   []bool // by block ID
	redefined []ir.Reg

	// counts, for a naming strategy after the first round, loses the
	// contribution of each block before the round first changes it.
	counts *canonCounts
}

// family returns a block-indexed matrix of empty sets over the round's
// expressions.
func (r *round) family() dataflow.BitMatrix {
	return r.sets.Family(len(r.f.Blocks), r.u.NumExprs())
}

// bottom is the insert position just before a block's terminator.
const bottom = -1

// insert materializes expression e into its temporary at index pos of
// b, or before b's terminator when pos is bottom.
func (r *round) insert(b *ir.Block, pos, e int) {
	in := r.u.MakeInstr(e, r.temp[e])
	r.edit(b)
	if pos == bottom {
		b.Append(in)
	} else {
		b.InsertAt(pos, in)
	}
	r.st.Inserted++
	r.redefined = append(r.redefined, in.Dst)
}

// edit records that the round is about to change b's instructions;
// the first time, b's contribution leaves the canonical counts.  A
// block an edge split made this round is not tracked: the driver
// refreshes everything after such a round.
func (r *round) edit(b *ir.Block) {
	if b.ID < len(r.touched) && !r.touched[b.ID] {
		r.touched[b.ID] = true
		if r.counts != nil {
			r.counts.forget(b)
		}
	}
}

// topPos is the first index of b after its φs and enter: the top-of-
// block insert position.
func topPos(b *ir.Block) int {
	pos := 0
	for pos < len(b.Instrs) && (b.Instr(pos).Op == ir.OpPhi || b.Instr(pos).Op == ir.OpEnter) {
		pos++
	}
	return pos
}

// An action is what rewrite does with one original occurrence of an
// expression.
type action uint8

const (
	keep    action = iota // leave the occurrence alone
	define                // leave it: it computes into the temporary itself (Mode A)
	remove                // delete it: the temporary is its destination and holds the value (Mode A)
	replace               // t ← copy h: the temporary holds the value
	compute               // h ← e; t ← copy h: compute through the temporary
)

// rewrite walks once through every block that computes one of the
// round's expressions or received an insertion, tracking in valid the
// expressions whose temporary holds their value at the current point.  start seeds
// valid at the top of each block; this round's insertions set their
// expression; decide picks the action for every original occurrence of
// an expression given whether its temporary is valid there; and
// definitions of operands (plus memory writes, for loads) clear it.
func (r *round) rewrite(start func(b *ir.Block, valid dataflow.BitSet), decide func(e int, valid bool) action) {
	f, u := r.f, r.u
	valid := r.sets.Set(u.NumExprs())
	for _, b := range f.Blocks {
		if b.ID < len(r.occurs) && !r.occurs[b.ID] && !r.touched[b.ID] {
			continue // nothing here for the round to keep, define or rewrite
		}
		start(b, valid)
		// kept replaces b.Instrs from the first instruction the walk
		// drops or rewrites on.
		var kept []ir.InstrID
		edit := func(i int) {
			if kept == nil {
				r.edit(b)
				kept = append(make([]ir.InstrID, 0, len(b.Instrs)+2), b.Instrs[:i]...)
			}
		}
		for i, id := range b.Instrs {
			in := f.Instr(id)
			e := u.Expr(in)
			act := keep
			switch {
			case e < 0:
			case id >= r.fresh:
				// Inserted this round.
				valid.Set(e)
				if kept != nil {
					kept = append(kept, id)
				}
				continue
			default:
				act = decide(e, valid.Has(e))
			}
			switch act {
			case remove:
				edit(i)
				r.st.Deleted++
				r.redefined = append(r.redefined, in.Dst)
				continue
			case define:
				valid.Set(e)
			case replace:
				edit(i)
				kept = append(kept, f.NewCopy(in.Dst, r.temp[e]).ID())
				r.st.Replaced++
				r.redefined = append(r.redefined, in.Dst)
				u.KillScan(valid, in.Dst, false)
				continue
			case compute:
				edit(i)
				kept = append(kept, u.MakeInstr(e, r.temp[e]).ID(), f.NewCopy(in.Dst, r.temp[e]).ID())
				valid.Set(e)
				r.st.Rewritten++
				r.redefined = append(r.redefined, in.Dst, r.temp[e])
				u.KillScan(valid, in.Dst, false)
				continue
			}
			if kept != nil {
				kept = append(kept, id)
			}
			u.KillScan(valid, in.Dst, in.Op.WritesMemory())
		}
		if kept != nil {
			b.Instrs = kept
		}
	}
	if r.st.Changed() {
		// The kept-slice rewrites bypass the Block helpers.
		f.MarkCodeMutated()
	}
}
