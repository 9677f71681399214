// Package lcm implements lazy code motion, the Knoop–Rüthing–Steffen
// formulation of partial redundancy elimination, as an alternate
// backend to the paper's Drechsler–Stadel variant (internal/pre).
//
// Where Drechsler–Stadel places insertions on edges, this backend uses
// the block-granularity restatement (Dragon Book §9.5): four
// unidirectional bitvector problems over the expression universe, with
// critical edges split first so block boundaries are expressive enough
// to stand in for edges.
//
//	ANTIN(b)    = ANTLOC(b) ∪ (ANTOUT(b) ∩ TRANSP(b))     backward ∩, ∅ at exits
//	AVOUT*(b)   = (ANTIN(b) ∪ AVIN*(b)) ∩ TRANSP(b)       forward ∩, ∅ into entry
//	EARLIEST(b) = ANTIN(b) ∖ AVIN*(b)
//	POUT(b)     = (EARLIEST(b) ∪ PIN(b)) ∖ ANTLOC(b)      forward ∩, ∅ into entry
//	LATEST(b)   = (EARLIEST∪PIN)(b) ∩ (ANTLOC(b) ∪ ¬⋂ₛ(EARLIEST∪PIN)(s))
//	USEDOUT(b)  = ⋃ₛ (ANTLOC ∪ USEDOUT)(s) ∖ LATEST(s)    backward ∪, ∅ at exits
//
// Down-safety (anticipability) bounds how early a computation may
// move; AVOUT* is availability under the fiction that every
// down-safe point computes, making EARLIEST the earliest down-safe
// frontier; postponability then slides each insertion as far down as
// it can go without passing a use, which is what makes the result
// lifetime-optimal; USEDOUT prunes isolated insertions that no later
// use would consume.  Because LATEST ⊆ EARLIEST ∪ PIN ⊆ ANTIN, the
// backend never inserts a computation on a path that did not already
// compute it (the down-safety guarantee; TestLCMDownSafety pins it).
//
// The transformation inserts h ← e at the top of every block with
// e ∈ LATEST ∩ USEDOUT and rewrites upward-exposed occurrences to
// copies from h wherever e ∈ ANTLOC ∖ (LATEST ∖ USEDOUT).  Unlike
// internal/pre there is no Mode A naming discipline: rewrites always
// go through a fresh temporary, and the downstream copy-coalescing
// passes are trusted to clean up.
package lcm

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Stats reports what one LCM run did to a function.
type Stats struct {
	Exprs         int // size of the expression universe
	Inserted      int // h ← e computations inserted at block tops
	Replaced      int // occurrences rewritten into copies from the temp
	EdgesSplit    int // critical edges split
	RemovedBlocks int // unreachable blocks dropped before analysis
	Rounds        int // iterations used by RunToFixpoint
}

// Changed reports whether the run made optimization progress — the
// fixpoint driver's termination condition.
func (s Stats) Changed() bool { return s.Inserted+s.Replaced > 0 }

// Mutated reports whether the run modified the function at all,
// including CFG surgery that Changed does not count as progress.
func (s Stats) Mutated() bool {
	return s.Changed() || s.EdgesSplit+s.RemovedBlocks > 0
}

// MaxRounds bounds RunToFixpoint; each round can move one more level
// of an expression chain (an operand's computation blocks upward
// exposure of its parents), mirroring internal/pre.
const MaxRounds = 32

// RunToFixpoint applies Run repeatedly until LCM finds nothing more.
func RunToFixpoint(f *ir.Func) Stats {
	return RunToFixpointWith(f, analysis.NewCache(f))
}

// RunToFixpointWith is RunToFixpoint drawing CFG analyses from the
// given cache.
func RunToFixpointWith(f *ir.Func, ac *analysis.Cache) Stats {
	var total Stats
	for i := 0; i < MaxRounds; i++ {
		st := RunWith(f, ac)
		total.Inserted += st.Inserted
		total.Replaced += st.Replaced
		total.EdgesSplit += st.EdgesSplit
		total.RemovedBlocks += st.RemovedBlocks
		total.Exprs = st.Exprs
		total.Rounds++
		if !st.Changed() {
			break
		}
	}
	return total
}

// Run performs one round of lazy code motion on f and returns
// statistics.  The function is modified in place.
func Run(f *ir.Func) Stats {
	return RunWith(f, analysis.NewCache(f))
}

// RunWith is Run drawing CFG analyses from the given cache.
func RunWith(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	st.RemovedBlocks = ac.RemoveUnreachable()
	st.EdgesSplit = cfg.SplitCriticalEdges(f)
	u := dataflow.BuildUniverse(f)
	n := u.NumExprs()
	st.Exprs = n
	if n == 0 {
		return st
	}
	rpo := ac.RPO()
	nb := len(f.Blocks)

	tmp := dataflow.NewBitSet(n)

	// Down-safety: anticipated expressions (backward, all-paths).
	antin := dataflow.NewBitSetFamily(nb, n)
	antout := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		antin[b.ID].SetAll()
	}
	dataflow.SolveBackward(rpo, dataflow.MeetAll, antout, antin,
		func(b *ir.Block, out, dst *dataflow.BitSet) {
			dst.CopyFrom(out)
			dst.Intersect(u.Transp[b.ID])
			dst.Union(u.AntLoc[b.ID])
		})

	// Availability under the earliest-placement fiction (forward,
	// all-paths): a down-safe entry point counts as a computation.
	avin := dataflow.NewBitSetFamily(nb, n)
	avout := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		avout[b.ID].SetAll()
	}
	dataflow.SolveForward(rpo, dataflow.MeetAll, avin, avout,
		func(b *ir.Block, in, dst *dataflow.BitSet) {
			dst.CopyFrom(in)
			dst.Union(antin[b.ID])
			dst.Intersect(u.Transp[b.ID])
		})

	// The earliest down-safe frontier.
	earliest := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		earliest[b.ID].AndNotOf(antin[b.ID], avin[b.ID])
	}

	// Postponability (forward, all-paths): slide insertions down until
	// a use is about to be passed.
	pin := dataflow.NewBitSetFamily(nb, n)
	pout := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		pout[b.ID].SetAll()
	}
	dataflow.SolveForward(rpo, dataflow.MeetAll, pin, pout,
		func(b *ir.Block, in, dst *dataflow.BitSet) {
			dst.CopyFrom(in)
			dst.Union(earliest[b.ID])
			dst.Subtract(u.AntLoc[b.ID])
		})

	// frontier = EARLIEST ∪ PIN: the points still allowed to hold the
	// insertion.  LATEST keeps the ones that cannot slide any further:
	// the block uses e itself, or some successor has left the frontier.
	frontier := dataflow.NewBitSetFamily(nb, n)
	latest := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		fr := frontier[b.ID]
		fr.CopyFrom(earliest[b.ID])
		fr.Union(pin[b.ID])
	}
	for _, b := range f.Blocks {
		tmp.SetAll() // ⋂ over no successors is ⊤: exits keep ANTLOC only
		for _, s := range b.Succs {
			tmp.Intersect(frontier[s.ID])
		}
		set := latest[b.ID]
		set.CopyFrom(frontier[b.ID])
		set.Intersect(u.AntLoc[b.ID])
		set.UnionDiff(frontier[b.ID], tmp)
	}

	// Isolation pruning (backward, any-path): is the temporary used on
	// some path after the block?
	uin := dataflow.NewBitSetFamily(nb, n)
	uout := dataflow.NewBitSetFamily(nb, n)
	dataflow.SolveBackward(rpo, dataflow.MeetAny, uout, uin,
		func(b *ir.Block, out, dst *dataflow.BitSet) {
			dst.CopyFrom(out)
			dst.Union(u.AntLoc[b.ID])
			dst.Subtract(latest[b.ID])
		})

	// Insert and replace decisions per block.  An expression whose only
	// latest point is isolated (LATEST ∖ USEDOUT) keeps its original
	// occurrence and gets no temp traffic at all.
	insertHere := dataflow.NewBitSetFamily(nb, n)
	replaceHere := dataflow.NewBitSetFamily(nb, n)
	interesting := dataflow.NewBitSet(n)
	for _, b := range f.Blocks {
		ins := insertHere[b.ID]
		ins.CopyFrom(latest[b.ID])
		ins.Intersect(uout[b.ID])
		interesting.Union(ins)
		tmp.AndNotOf(latest[b.ID], uout[b.ID])
		replaceHere[b.ID].AndNotOf(u.AntLoc[b.ID], tmp)
	}
	if interesting.Empty() {
		return st
	}

	temp := ac.BorrowRegs(n)
	defer ac.ReturnRegs(temp)
	interesting.ForEach(func(e int) { temp[e] = f.NewReg() })

	// Perform insertions at block tops, after any φs and the enter.
	insertedInstr := map[*ir.Instr]bool{}
	for _, b := range f.Blocks {
		set := insertHere[b.ID]
		if set.Empty() {
			continue
		}
		pos := 0
		for pos < len(b.Instrs) && (b.Instr(pos).Op == ir.OpPhi || b.Instr(pos).Op == ir.OpEnter) {
			pos++
		}
		set.ForEach(func(e int) {
			in := u.MakeInstr(e, temp[e])
			insertedInstr[in] = true
			b.InsertAt(pos, in)
			pos++
			st.Inserted++
		})
	}

	// Rewrite upward-exposed occurrences into copies from the temp.
	// The valid vector starts from the block's replace set and decays
	// at kills, so occurrences past the first kill stay untouched (they
	// are not upward-exposed and the equations made no promise about
	// them — any redundancy there is re-exposed to the next round).
	hValid := dataflow.NewBitSet(n)
	for _, b := range f.Blocks {
		hValid.CopyFrom(replaceHere[b.ID])
		hValid.Intersect(interesting)
		if hValid.Empty() {
			continue
		}
		kept := make([]ir.InstrID, 0, len(b.Instrs))
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if insertedInstr[in] {
				kept = append(kept, inID)
				continue
			}
			dstForKill := in.Dst
			if k, ok := dataflow.KeyOf(in); ok {
				if e, found := u.Index[k]; found && hValid.Has(e) {
					kept = append(kept, f.NewCopy(in.Dst, temp[e]).ID())
					st.Replaced++
					u.KillScan(hValid, dstForKill, false)
					continue
				}
			}
			kept = append(kept, inID)
			u.KillScan(hValid, dstForKill, in.Op.WritesMemory())
		}
		b.Instrs = kept
	}
	if st.Changed() {
		// The kept-slice rewrites above bypass the Block helpers.
		f.MarkCodeMutated()
	}
	return st
}
