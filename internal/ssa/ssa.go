// Package ssa builds and destroys static single assignment form.
//
// Construction follows Cytron, Ferrante, Rosen, Wegman and Zadeck
// (TOPLAS 1991) with the liveness pruning of Choi, Cytron and Ferrante
// — the paper's §3.1 "our first step is to build the pruned SSA form of
// the routine".  As the paper prescribes, ordinary copies are removed
// during the renaming step, "effectively folding them into φ-nodes",
// which severs the optimizer's dependence on the programmer's choice of
// variable names (§2.2).
//
// Destruction replaces each φ-node with copies in the predecessor
// blocks (splitting critical edges first) and sequentializes the
// parallel copies on each edge correctly, including the swap/lost-copy
// cases.
package ssa

import (
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// BuildOptions configure SSA construction.
type BuildOptions struct {
	// Prune uses liveness to avoid dead φ-nodes (pruned SSA).  The
	// paper notes minimal SSA "would have required many more φ-nodes".
	Prune bool
	// FoldCopies removes copy instructions during renaming, folding
	// them into φ-nodes (paper §3.1).
	FoldCopies bool
}

// Build converts f to SSA form in place.  Every definition gets a fresh
// register; φ-nodes appear at iterated dominance frontiers.  Uses of
// registers with no reaching definition are wired to a zero constant
// materialized in the entry block (our front end never produces such
// uses; hand-written ILOC might).
//
// The dominator tree and liveness come from the given analysis cache,
// so construction reuses results that are still valid from earlier
// passes.
func Build(f *ir.Func, opt BuildOptions, ac *analysis.Cache) {
	ac.RemoveUnreachable()
	dom := ac.DomTree()

	nr := f.NumRegs()
	defBlocks := make([][]*ir.Block, nr) // blocks defining each register
	hasDef := ac.BorrowBools(nr)
	defer ac.ReturnBools(hasDef)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := b.Instr(ii)
			if in.Dst != ir.NoReg {
				defBlocks[in.Dst] = append(defBlocks[in.Dst], b)
				hasDef[in.Dst] = true
			}
			if in.Op == ir.OpEnter {
				for _, p := range in.Args {
					defBlocks[p] = append(defBlocks[p], b)
					hasDef[p] = true
				}
			}
		}
	}

	var lv *dataflow.Liveness
	if opt.Prune {
		lv = ac.Liveness()
	}

	// Insert φ-nodes at iterated dominance frontiers.  The per-variable
	// placed/on-worklist sets are generation-stamped block tables
	// borrowed from the analysis arena — one pair of []int serves every
	// register instead of two fresh maps each.
	phiFor := map[*ir.Instr]ir.Reg{} // φ instr → original variable
	nb := len(f.Blocks)
	placedAt := ac.BorrowInts(nb)
	onWorkAt := ac.BorrowInts(nb)
	work := ac.BorrowBlocks(nb)[:0]
	for i := range placedAt {
		placedAt[i] = -1
		onWorkAt[i] = -1
	}
	for v := ir.Reg(1); int(v) < nr; v++ {
		if !hasDef[v] {
			continue
		}
		gen := int(v)
		work = append(work[:0], defBlocks[v]...)
		for _, b := range work {
			onWorkAt[b.ID] = gen
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range dom.Frontier(b) {
				if placedAt[d.ID] == gen {
					continue
				}
				if opt.Prune && !lv.LiveIn.Row(d.ID).Has(int(v)) {
					continue
				}
				placedAt[d.ID] = gen
				phi := f.NewPhi(v, len(d.Preds))
				for i := range phi.Args {
					phi.Args[i] = v
				}
				d.InsertAt(0, phi)
				phiFor[phi] = v
				if onWorkAt[d.ID] != gen {
					onWorkAt[d.ID] = gen
					work = append(work, d)
				}
			}
		}
	}
	ac.ReturnInts(placedAt)
	ac.ReturnInts(onWorkAt)
	ac.ReturnBlocks(work)

	// Rename with a dominator-tree walk.  tops[v] is the innermost SSA
	// name for v (NoReg when v has no binding); shadowed bindings live
	// in the undo log rather than per-register stacks, so renaming
	// allocates nothing per register.
	tops := make([]ir.Reg, nr)
	// undef is the lazily created zero register for undefined uses.  Its
	// definition is inserted into the entry block only after renaming,
	// because renaming rewrites that block's instruction slice in place.
	var undef ir.Reg

	top := func(v ir.Reg) ir.Reg {
		s := tops[v]
		if s == ir.NoReg {
			if undef == ir.NoReg {
				undef = f.NewReg()
			}
			return undef
		}
		return s
	}

	// undoLog records, across the whole dominator-tree walk, each
	// binding that a push displaced; a block's exit restores its own
	// suffix.  This replaces a per-block map of push counts with one
	// shared slice that the recursion indexes by position.
	type savedBinding struct{ v, prev ir.Reg }
	var undoLog []savedBinding
	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		undoMark := len(undoLog)
		push := func(v, nv ir.Reg) {
			undoLog = append(undoLog, savedBinding{v, tops[v]})
			tops[v] = nv
		}

		kept := b.Instrs[:0]
		for _, id := range b.Instrs {
			in := f.Instr(id)
			switch in.Op {
			case ir.OpPhi:
				v := in.Dst
				nv := f.NewReg()
				in.Dst = nv
				push(v, nv)
				kept = append(kept, id)
				continue
			case ir.OpEnter:
				for i, p := range in.Args {
					nv := f.NewReg()
					in.Args[i] = nv
					push(p, nv)
					if i < len(f.Params) {
						f.Params[i] = nv
					}
				}
				kept = append(kept, id)
				continue
			case ir.OpCopy:
				if opt.FoldCopies {
					// Fold: the copy target becomes an alias of the
					// (already renamed) source.
					src := top(in.Args[0])
					push(in.Dst, src)
					continue // drop the copy
				}
			}
			for i, a := range in.Args {
				in.Args[i] = top(a)
			}
			if in.Dst != ir.NoReg {
				v := in.Dst
				nv := f.NewReg()
				in.Dst = nv
				push(v, nv)
			}
			kept = append(kept, id)
		}
		b.Instrs = kept

		for _, s := range b.Succs {
			pi := s.PredIndex(b)
			for _, pid := range s.Phis() {
				phi := f.Instr(pid)
				v := phiFor[phi]
				if v == ir.NoReg {
					continue
				}
				phi.Args[pi] = top(v)
			}
		}
		for _, c := range dom.Children(b) {
			rename(c)
		}
		for i := len(undoLog) - 1; i >= undoMark; i-- {
			e := undoLog[i]
			tops[e.v] = e.prev
		}
		undoLog = undoLog[:undoMark]
	}
	rename(f.Entry())
	if undef != ir.NoReg {
		entry := f.Entry()
		pos := 0
		if entry.Instr(0).Op == ir.OpEnter {
			pos = 1
		}
		entry.InsertAt(pos, f.NewLoadI(undef, 0))
	}
	// Renaming rewrites instruction slices in place; record the code
	// mutation so cached liveness is rebuilt.
	f.MarkCodeMutated()
}

// Destruct removes φ-nodes by inserting copies in predecessor blocks.
// This is the operation of the paper's Figure 5 ("φ-nodes are
// eliminated by inserting copies"; "if necessary, the entering edges
// are split and appropriate predecessor blocks are created").
//
// A copy for the edge p→s normally lands at the end of p.  When p has
// several successors the edge is critical and would need splitting —
// but if every copy destination is dead along p's other out-edges, the
// copies can still sit at the end of p, executing harmlessly on the
// other paths.  That placement is what lets a bottom-test loop keep
// its body in one block, so that after coalescing erases the copies
// the loop looks like the paper's Figure 10 rather than paying a jump
// through a latch block every iteration.  Only when a destination is
// live on another out-edge does the edge get split.
//
// All copies placed at the end of one predecessor form a single
// parallel copy, sequentialized with a temporary when they form a
// cycle (the classic swap problem).  Liveness comes from the given
// analysis cache.
func Destruct(f *ir.Func, ac *analysis.Cache) {
	lv := ac.Liveness()

	type edgeCopies struct {
		dsts, srcs []ir.Reg
	}
	// inline[p] accumulates copies to place at the end of block p.
	inline := map[*ir.Block]*edgeCopies{}
	type splitJob struct {
		p, s       *ir.Block
		dsts, srcs []ir.Reg
	}
	var splits []splitJob

	// Snapshot every block's φ-nodes before any mutation, then delete
	// them; placement decisions below consult the snapshot.  Arena IDs
	// stay readable through f.Instr after removal from the block.
	phiSnap := map[*ir.Block][]ir.InstrID{}
	for _, b := range f.Blocks {
		if phis := b.Phis(); len(phis) > 0 {
			phiSnap[b] = append([]ir.InstrID(nil), phis...)
			b.Instrs = b.Instrs[len(phis):]
		}
	}
	if len(phiSnap) > 0 {
		// The slice rewrites above bypass the Block helpers.
		f.MarkCodeMutated()
	}

	// liveOnOtherEdge reports whether d is needed along some other
	// out-edge of p than p→s: live into that successor, or read by one
	// of its φ-nodes through p's operand slot.  A d that p's own
	// terminator reads counts too: a copy placed before the branch
	// would overwrite its operand (the lost-copy problem).
	liveOnOtherEdge := func(p, s *ir.Block, d ir.Reg) bool {
		if t := p.Terminator(); t != nil && slices.Contains(t.Args, d) {
			return true
		}
		for _, t := range p.Succs {
			if t == s {
				continue
			}
			if lv.LiveIn.Row(t.ID).Has(int(d)) {
				return true
			}
			pi := t.PredIndex(p)
			for _, pid := range phiSnap[t] {
				phi := f.Instr(pid)
				if pi >= 0 && pi < len(phi.Args) && phi.Args[pi] == d {
					return true
				}
			}
		}
		return false
	}

	for _, b := range f.Blocks {
		phis := phiSnap[b]
		if len(phis) == 0 {
			continue
		}
		for pi, p := range b.Preds {
			var dsts, srcs []ir.Reg
			for _, pid := range phis {
				phi := f.Instr(pid)
				if phi.Dst != phi.Args[pi] {
					dsts = append(dsts, phi.Dst)
					srcs = append(srcs, phi.Args[pi])
				}
			}
			if len(dsts) == 0 {
				continue
			}
			canInline := true
			if len(p.Succs) > 1 {
				for _, d := range dsts {
					if liveOnOtherEdge(p, b, d) {
						canInline = false
						break
					}
				}
			}
			if canInline {
				ec := inline[p]
				if ec == nil {
					ec = &edgeCopies{}
					inline[p] = ec
				}
				ec.dsts = append(ec.dsts, dsts...)
				ec.srcs = append(ec.srcs, srcs...)
			} else {
				splits = append(splits, splitJob{p: p, s: b, dsts: dsts, srcs: srcs})
			}
		}
	}

	// Flush in deterministic block order: sequentialization may
	// allocate temporaries, and register numbering must not depend on
	// map iteration order (it feeds sorting tie-breaks downstream).
	inlineBlocks := make([]*ir.Block, 0, len(inline))
	for p := range inline {
		inlineBlocks = append(inlineBlocks, p)
	}
	sort.Slice(inlineBlocks, func(i, j int) bool { return inlineBlocks[i].ID < inlineBlocks[j].ID })
	for _, p := range inlineBlocks {
		ec := inline[p]
		for _, c := range SequentializeParallelCopy(f, ec.dsts, ec.srcs) {
			p.Append(c)
		}
	}
	for _, job := range splits {
		mid := cfg.SplitEdge(job.p, job.s)
		for _, c := range SequentializeParallelCopy(f, job.dsts, job.srcs) {
			mid.Append(c)
		}
	}
}

// SequentializeParallelCopy orders the parallel copy dsts[i] ← srcs[i]
// into a sequence of copy instructions, introducing a temporary
// register to break cycles (the classic swap problem).
func SequentializeParallelCopy(f *ir.Func, dsts, srcs []ir.Reg) []*ir.Instr {
	var out []*ir.Instr
	// pending maps dst → src.
	pending := map[ir.Reg]ir.Reg{}
	uses := map[ir.Reg]int{} // how many pending copies read this reg
	for i, d := range dsts {
		pending[d] = srcs[i]
		uses[srcs[i]]++
	}
	// Ready: destinations no pending copy reads.  Iterate the dsts
	// slice (not the map) so the emitted copy order is deterministic.
	var ready []ir.Reg
	for _, d := range dsts {
		if _, isPending := pending[d]; isPending && uses[d] == 0 {
			ready = append(ready, d)
		}
	}
	for len(pending) > 0 {
		for len(ready) > 0 {
			d := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			s, ok := pending[d]
			if !ok {
				continue
			}
			out = append(out, f.NewCopy(d, s))
			delete(pending, d)
			uses[s]--
			if uses[s] == 0 {
				if _, isDst := pending[s]; isDst {
					ready = append(ready, s)
				}
			}
		}
		if len(pending) == 0 {
			break
		}
		// Only cycles remain; break one with a temporary.  Pick the
		// smallest destination for determinism.
		var d ir.Reg = -1
		for k := range pending {
			if d < 0 || k < d {
				d = k
			}
		}
		tmp := f.NewReg()
		out = append(out, f.NewCopy(tmp, d))
		for k, s := range pending {
			if s == d {
				uses[d]--
				pending[k] = tmp
				uses[tmp]++
			}
		}
		if uses[d] == 0 {
			ready = append(ready, d)
		}
	}
	return out
}
