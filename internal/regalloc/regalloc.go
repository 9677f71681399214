// Package regalloc implements Chaitin–Briggs graph-coloring register
// allocation with optimistic coloring and spill code.
//
// The paper assumes this machinery exists: §3.2 relies on "the
// coalescing phase of a Chaitin-style global register allocator" to
// clean up the copies its transformations introduce, and the
// first author's own thesis contributed the optimistic-coloring
// improvement implemented here.  The allocator completes the compiler
// story and enables the register-pressure experiments: forward
// propagation and PRE's hoisted temporaries lengthen live ranges, so
// the optimization levels differ not just in operation counts but in
// how many spills a finite register file forces.
//
// Algorithm per function, iterated until no spills:
//
//  1. liveness → interference graph (defs interfere with live-out,
//     copies excepted for their source, the Chaitin refinement);
//  2. simplify: repeatedly remove nodes of degree < K; when stuck,
//     optimistically remove a spill candidate anyway (Briggs);
//  3. select: pop nodes, assign the lowest free color; a node with no
//     free color is marked to spill;
//  4. spill: give the value an 8-byte static slot, reload before each
//     use and store after each def with fresh short-lived temporaries,
//     then repeat.
//
// Values whose type (integer vs. float) cannot be inferred are never
// spilled — the memory operations are typed — so allocation can fail
// for very small K; Run reports that as an error rather than guessing.
package regalloc

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Result reports one program's allocation.
type Result struct {
	Spilled    int   // values spilled across all functions
	SpillSlots int64 // bytes of spill memory appended to the data segment
	Rounds     int   // build–color–spill iterations summed over functions
	MaxRegs    int   // largest physical register count any function needed
}

// MinK is the smallest supported register file; spill code itself
// needs registers.
const MinK = 4

// MaxRounds bounds the spill iteration.
const MaxRounds = 32

// Run allocates every function of prog to K physical registers
// (r1..rK), inserting spill code backed by static slots appended to
// the program's data segment.  Functions must be φ-free.
func Run(prog *ir.Program, k int) (Result, error) {
	var res Result
	if k < MinK {
		return res, fmt.Errorf("regalloc: K=%d below minimum %d", k, MinK)
	}
	for _, f := range prog.Funcs {
		r, err := runFunc(f, prog, k)
		if err != nil {
			return res, fmt.Errorf("regalloc: %s: %w", f.Name, err)
		}
		res.Spilled += r.Spilled
		res.SpillSlots += r.SpillSlots
		res.Rounds += r.Rounds
		if r.MaxRegs > res.MaxRegs {
			res.MaxRegs = r.MaxRegs
		}
	}
	return res, nil
}

type regType uint8

const (
	typeNone regType = iota // absent: no information yet
	typeInt
	typeFloat
	typeUnknown // conflict: cannot be spilled through typed memory ops
)

func runFunc(f *ir.Func, prog *ir.Program, k int) (Result, error) {
	var res Result
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpPhi {
				return res, fmt.Errorf("function still contains φ-nodes")
			}
		}
	}
	spilledEver := map[ir.Reg]bool{}
	// One cache serves every round: spillReg rewrites the code, which
	// moves its generation, so each round's liveness is fresh.
	ac := analysis.NewCache(f)

	for round := 0; round < MaxRounds; round++ {
		res.Rounds++
		types := InferProgramTypes(prog)[f.Name]
		spillable := func(r ir.Reg) bool {
			t := types[r]
			return !spilledEver[r] && (t == typeInt || t == typeFloat)
		}
		g, present := buildInterference(f, ac.Liveness())
		coloring, toSpill := color(g, present, k, spillable)
		if len(toSpill) == 0 {
			applyColoring(f, coloring, &res)
			return res, nil
		}
		spilledOne := false
		for _, v := range toSpill {
			if !spillable(v) {
				continue
			}
			spillReg(f, prog, v, types[v] == typeFloat)
			spilledEver[v] = true
			res.Spilled++
			res.SpillSlots += 8
			spilledOne = true
		}
		if !spilledOne {
			return res, fmt.Errorf("cannot allocate with K=%d: remaining candidates are unspillable", k)
		}
	}
	return res, fmt.Errorf("did not converge in %d rounds", MaxRounds)
}

// graph is a dense-ish interference graph over registers.
type graph struct {
	adj map[ir.Reg]map[ir.Reg]bool
}

func (g *graph) add(a, b ir.Reg) {
	if a == b {
		return
	}
	if g.adj[a] == nil {
		g.adj[a] = map[ir.Reg]bool{}
	}
	if g.adj[b] == nil {
		g.adj[b] = map[ir.Reg]bool{}
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

// buildInterference computes the interference graph and the set of
// registers that appear in the function, given its current liveness.
func buildInterference(f *ir.Func, lv *dataflow.Liveness) (*graph, map[ir.Reg]bool) {
	g := &graph{adj: map[ir.Reg]map[ir.Reg]bool{}}
	present := map[ir.Reg]bool{}
	note := func(r ir.Reg) {
		if r != ir.NoReg {
			present[r] = true
			if g.adj[r] == nil {
				g.adj[r] = map[ir.Reg]bool{}
			}
		}
	}
	live := dataflow.NewBitSet(f.NumRegs())
	for _, b := range f.Blocks {
		live.CopyFrom(lv.LiveOut.Row(b.ID))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instr(i)
			defs := []ir.Reg(nil)
			if in.Op == ir.OpEnter {
				defs = in.Args
			} else if in.Dst != ir.NoReg {
				defs = []ir.Reg{in.Dst}
			}
			for _, d := range defs {
				note(d)
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
					note(a)
					live.Set(int(a))
				}
			}
		}
	}
	return g, present
}

// color runs simplify/select with Briggs optimistic coloring.  It
// returns a color (0-based) per register, and the registers that could
// not be colored.  The spillable predicate steers the optimistic phase
// toward nodes that can actually be spilled (typed values): an
// unspillable node pushed late pops early and colors first.
func color(g *graph, present map[ir.Reg]bool, k int, spillable func(ir.Reg) bool) (map[ir.Reg]int, []ir.Reg) {
	// Deterministic node order.
	nodes := make([]ir.Reg, 0, len(present))
	for r := range present {
		nodes = append(nodes, r)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	degree := map[ir.Reg]int{}
	removed := map[ir.Reg]bool{}
	for _, n := range nodes {
		degree[n] = len(g.adj[n])
	}

	var stack []ir.Reg
	remaining := len(nodes)
	for remaining > 0 {
		// Simplify: any node with degree < k.
		picked := ir.NoReg
		for _, n := range nodes {
			if !removed[n] && degree[n] < k {
				picked = n
				break
			}
		}
		if picked == ir.NoReg {
			// Optimistic spill candidate: highest degree among the
			// spillable nodes (ties by register order for
			// determinism); unspillable ones only as a last resort.
			best := ir.NoReg
			bestDeg := -1
			for _, n := range nodes {
				if !removed[n] && spillable(n) && degree[n] > bestDeg {
					best, bestDeg = n, degree[n]
				}
			}
			if best == ir.NoReg {
				for _, n := range nodes {
					if !removed[n] && degree[n] > bestDeg {
						best, bestDeg = n, degree[n]
					}
				}
			}
			picked = best
		}
		removed[picked] = true
		remaining--
		stack = append(stack, picked)
		for nb := range g.adj[picked] {
			if !removed[nb] {
				degree[nb]--
			}
		}
	}

	coloring := map[ir.Reg]int{}
	var spills []ir.Reg
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		used := map[int]bool{}
		for nb := range g.adj[n] {
			if c, ok := coloring[nb]; ok {
				used[c] = true
			}
		}
		assigned := -1
		for c := 0; c < k; c++ {
			if !used[c] {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			spills = append(spills, n)
			continue
		}
		coloring[n] = assigned
	}
	sort.Slice(spills, func(i, j int) bool { return spills[i] < spills[j] })
	return coloring, spills
}

// applyColoring rewrites every register to its physical register
// (color c → r(c+1)).
func applyColoring(f *ir.Func, coloring map[ir.Reg]int, res *Result) {
	maxColor := -1
	for _, c := range coloring {
		if c > maxColor {
			maxColor = c
		}
	}
	if maxColor+1 > res.MaxRegs {
		res.MaxRegs = maxColor + 1
	}
	phys := func(r ir.Reg) ir.Reg {
		if c, ok := coloring[r]; ok {
			return ir.Reg(c + 1)
		}
		return r
	}
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			for i, a := range in.Args {
				in.Args[i] = phys(a)
			}
			if in.Dst != ir.NoReg {
				in.Dst = phys(in.Dst)
			}
		}
	}
	for i, p := range f.Params {
		f.Params[i] = phys(p)
	}
	f.MarkCodeMutated()
}

// InferProgramTypes determines int/float per register for every
// function, whole-program: operation results type themselves, copies
// propagate, call arguments type the callee's parameters, and returned
// registers type the callers' call destinations — all to a fixed point
// on the lattice absent → int/float → unknown (conflict).  Exported
// because tests and tools inspect the inference.
func InferProgramTypes(prog *ir.Program) map[string]map[ir.Reg]regType {
	all := map[string]map[ir.Reg]regType{}
	for _, f := range prog.Funcs {
		all[f.Name] = map[ir.Reg]regType{}
	}
	// merge raises r toward unknown on conflicts; reports change.
	// The lattice is typeNone → typeInt/typeFloat → typeUnknown and
	// values only move upward, so the fixpoint terminates.
	merge := func(m map[ir.Reg]regType, r ir.Reg, t regType) bool {
		if t == typeNone || t == typeUnknown || r == ir.NoReg {
			return false
		}
		switch cur := m[r]; {
		case cur == typeNone:
			m[r] = t
			return true
		case cur == typeUnknown || cur == t:
			return false
		default:
			m[r] = typeUnknown
			return true
		}
	}
	// Seed from operation results.
	for _, f := range prog.Funcs {
		m := all[f.Name]
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if in.Op == ir.OpEnter || in.Op == ir.OpCopy || in.Op == ir.OpCall {
				return
			}
			if in.Dst != ir.NoReg {
				if in.Op.Float() {
					merge(m, in.Dst, typeFloat)
				} else {
					merge(m, in.Dst, typeInt)
				}
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			m := all[f.Name]
			f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
				switch in.Op {
				case ir.OpCopy:
					if merge(m, in.Dst, m[in.Args[0]]) {
						changed = true
					}
				case ir.OpCall:
					callee := prog.Func(f.SymName(in.Sym))
					if callee == nil {
						return
					}
					cm := all[callee.Name]
					for ai, a := range in.Args {
						if ai < len(callee.Params) && merge(cm, callee.Params[ai], m[a]) {
							changed = true
						}
					}
					if in.Dst != ir.NoReg {
						for _, cb := range callee.Blocks {
							if t := cb.Terminator(); t != nil && t.Op == ir.OpRet && len(t.Args) == 1 {
								if merge(m, in.Dst, cm[t.Args[0]]) {
									changed = true
								}
							}
						}
					}
				}
			})
		}
	}
	return all
}

// spillReg gives v a static slot and rewrites every use/def to go
// through memory with fresh temporaries.
func spillReg(f *ir.Func, prog *ir.Program, v ir.Reg, isFloat bool) {
	prog.GlobalSize = (prog.GlobalSize + 7) &^ 7
	slot := prog.GlobalSize
	prog.GlobalSize += 8

	loadOp, storeOp := ir.OpLoadW, ir.OpStoreW
	if isFloat {
		loadOp, storeOp = ir.OpLoadD, ir.OpStoreD
	}

	for _, b := range f.Blocks {
		out := make([]ir.InstrID, 0, len(b.Instrs))
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			usesV := false
			if in.Op != ir.OpEnter {
				for _, a := range in.Args {
					if a == v {
						usesV = true
					}
				}
			}
			if usesV {
				addr := f.NewReg()
				tmp := f.NewReg()
				out = append(out, f.NewLoadI(addr, slot).ID(), f.NewInstr(loadOp, tmp, addr).ID())
				for i, a := range in.Args {
					if a == v {
						in.Args[i] = tmp
					}
				}
			}
			out = append(out, inID)
			defsV := in.Dst == v
			if in.Op == ir.OpEnter {
				for _, p := range in.Args {
					if p == v {
						defsV = true
					}
				}
			}
			if defsV {
				addr := f.NewReg()
				out = append(out, f.NewLoadI(addr, slot).ID(),
					f.NewInstr(storeOp, ir.NoReg, v, addr).ID())
			}
		}
		b.Instrs = out
	}
	f.MarkCodeMutated()
}
