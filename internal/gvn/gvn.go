// Package gvn implements partition-based global value numbering and the
// global renaming scheme of the paper's §3.2.
//
// The analysis is Alpern, Wegman and Zadeck's optimistic congruence
// partitioning ("Detecting equality of variables in programs", POPL
// 1988) in its simplest variation, exactly the one the paper reports
// using ("Our implementation of global value numbering uses the
// simplest variation described by Alpern, Wegman, and Zadeck", §4):
// all values start optimistically merged by operator and the partition
// is refined — split — until operand classes agree position-wise.
// Congruences that hold only through loops (e.g. two separately named
// induction variables with identical updates) survive because the
// partition only splits on disproof.
//
// Renaming then encodes the discovered equivalences into the name
// space: every member of a congruence class is renamed to one
// representative register, so lexically identical expressions carry
// identical names — the precondition PRE needs (§2.2).  φ-targets and
// the copies that replace φs are the only "variable names"; everything
// else is an "expression name".  No instruction is added, deleted, or
// moved, exactly as the paper specifies.
package gvn

import (
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// Stats reports the outcome of a GVN run.
type Stats struct {
	Values  int // SSA values considered
	Classes int // final congruence classes
	PhiDups int // duplicate φ-nodes removed after renaming
}

// Run performs global value numbering on f: it builds pruned SSA
// (folding copies), partitions the values into congruence classes,
// renames every value to its class representative, removes duplicated
// φ-nodes, and translates out of SSA by inserting copies.  The
// function is modified in place.  CFG analyses come from the given
// cache: when the CFG has not changed since a previous pass built the
// dominator tree, SSA construction here reuses it.
func Run(f *ir.Func, ac *analysis.Cache) Stats {
	ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, ac)
	st := Partition(f)
	ssa.Destruct(f, ac)
	return st
}

// def describes the defining site of one SSA value.
type def struct {
	in    *ir.Instr
	block *ir.Block
	// enterIdx is the parameter position when in.Op == OpEnter,
	// else -1.
	enterIdx int
}

// initKey is the structured operator-level identity of a value — what
// the byte-buffer keys of the original implementation spelled out with
// encoding/binary.  kind disambiguates the payload space: 'p' enter
// parameter (position), 'c'/'f' integer/float constant (value bits),
// 'F' φ (block), 'u' opaque load/call result (the register itself),
// 'o' ordinary operator (opcode).  Being a comparable struct it keys a
// Go map directly, with no per-intern allocation.
type initKey struct {
	kind    uint8
	payload uint64
}

// initSentinel starts every refinement hash chain (see classes): fold
// ids are assigned sequentially from zero, so the sentinel in the high
// word can never collide with a real chain prefix.
const initSentinel = uint64(0xFFFFFFFF) << 32

// classes computes the coarsest congruence partition of f's SSA
// values.  It returns the values in ascending register order and a
// register-indexed table of class ids (0 marks a register that is not
// an SSA value).  Two values are congruent exactly when their class
// ids are equal.
//
// The refinement key of a value is its initial operator key plus the
// classes of its operands, position-wise.  Instead of spelling that
// tuple into a byte buffer and interning it through map[string]uint32
// (an allocation per value per round), the tuple is folded pairwise
// through an integer-keyed map: h₀ = intern(sentinel | init), hᵢ =
// intern(hᵢ₋₁ · classᵢ).  Each intern is a bijection between (prefix,
// class) pairs and fresh ids, so equal final ids mean equal tuples —
// the same partition the byte keys produced, without the buffers.
func classes(f *ir.Func) ([]ir.Reg, []uint32) {
	nr := f.NumRegs()
	defs := make([]def, nr)
	values := make([]ir.Reg, 0, nr)
	addValue := func(r ir.Reg, d def) {
		if defs[r].in != nil {
			// Multiple defs: not SSA; keep the first, the partition
			// will simply be conservative for this register.
			return
		}
		defs[r] = d
		values = append(values, r)
	}
	for _, b := range f.Blocks {
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpEnter {
				for i, p := range in.Args {
					addValue(p, def{in: in, block: b, enterIdx: i})
				}
				continue
			}
			if in.Dst != ir.NoReg {
				addValue(in.Dst, def{in: in, block: b, enterIdx: -1})
			}
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

	// Initial optimistic partition over structured keys.
	initID := make([]uint32, nr)
	keyIDs := make(map[initKey]uint32, len(values))
	for _, v := range values {
		d := defs[v]
		var k initKey
		switch {
		case d.enterIdx >= 0:
			k = initKey{'p', uint64(d.enterIdx)}
		case d.in.Op == ir.OpLoadI:
			k = initKey{'c', uint64(d.in.Imm)}
		case d.in.Op == ir.OpLoadF:
			k = initKey{'f', floatBitsOf(d.in.FImm)}
		case d.in.Op == ir.OpPhi:
			k = initKey{'F', uint64(d.block.ID)}
		case d.in.Op == ir.OpCall || d.in.Op.IsLoad():
			// Loads and call results are opaque: singleton classes.
			k = initKey{'u', uint64(v)}
		default:
			k = initKey{'o', uint64(d.in.Op)}
		}
		id, ok := keyIDs[k]
		if !ok {
			id = uint32(len(keyIDs) + 1)
			keyIDs[k] = id
		}
		initID[v] = id
	}

	// Refine to the coarsest congruence.  The fold map and the class
	// tables are the only per-round state, and all of them are reused
	// round over round (the map via clear, the tables by swapping).
	class := make([]uint32, nr)
	next := make([]uint32, nr)
	for _, v := range values {
		class[v] = initID[v]
	}
	classOf := func(r ir.Reg) uint32 {
		if int(r) < nr {
			if c := class[r]; c != 0 {
				return c
			}
		}
		// Uses of registers with no def (should not happen after SSA
		// construction): unique by register.
		return ^uint32(r)
	}
	fold := make(map[uint64]uint32, len(values))
	var foldID uint32
	intern := func(k uint64) uint32 {
		id, ok := fold[k]
		if !ok {
			foldID++
			id = foldID
			fold[k] = id
		}
		return id
	}
	var seen []bool // marks final ids when counting classes per round
	prevCount := -1
	for {
		clear(fold)
		foldID = 0
		for _, v := range values {
			d := defs[v]
			h := intern(initSentinel | uint64(initID[v]))
			if d.enterIdx < 0 && d.in.Op != ir.OpLoadI && d.in.Op != ir.OpLoadF {
				for _, a := range d.in.Args {
					h = intern(uint64(h)<<32 | uint64(classOf(a)))
				}
			}
			next[v] = h
		}
		// Count distinct classes (final ids only; the fold counter
		// also numbers intermediate prefixes).
		if int(foldID)+1 > len(seen) {
			seen = make([]bool, foldID+1)
		} else {
			clear(seen[:foldID+1])
		}
		count := 0
		for _, v := range values {
			if !seen[next[v]] {
				seen[next[v]] = true
				count++
			}
		}
		class, next = next, class
		same := count == prevCount
		prevCount = count
		if same {
			break
		}
	}
	return values, class
}

// Partition value-numbers an SSA-form function and renames values to
// class representatives in place (leaving the function in SSA form,
// with duplicate φs removed).  Exposed separately so callers that
// manage SSA themselves can reuse it; most callers want Run.
func Partition(f *ir.Func) Stats {
	values, class := classes(f)
	return renameToReps(f, values, class)
}

// AWZClasses exposes the AWZ congruence partition of an SSA-form
// function without renaming: the values in ascending register order
// and a register-indexed class table (0 marks a non-value register).
// The refinement tests and the gvncompare report consume it to compare
// the two backends' partitions on identical SSA input.
func AWZClasses(f *ir.Func) ([]ir.Reg, []uint32) { return classes(f) }

// renameToReps encodes a congruence partition into the name space:
// every member of a class is renamed to one representative register
// and duplicated φ-nodes are removed.  Shared by both GVN backends —
// they differ only in how the partition is computed.
func renameToReps(f *ir.Func, values []ir.Reg, class []uint32) Stats {
	// Pick one representative register per class and rewrite.  Values
	// are visited in ascending register order, so representative
	// numbering is deterministic and independent of how the class ids
	// happen to be numbered.
	var maxClass uint32
	for _, v := range values {
		if class[v] > maxClass {
			maxClass = class[v]
		}
	}
	rep := make([]ir.Reg, maxClass+1)
	nClasses := 0
	for _, v := range values {
		if c := class[v]; rep[c] == ir.NoReg {
			rep[c] = f.NewReg()
			nClasses++
		}
	}
	rename := func(r ir.Reg) ir.Reg {
		if int(r) < len(class) {
			if c := class[r]; c != 0 {
				return rep[c]
			}
		}
		return r
	}
	st := Stats{Values: len(values), Classes: nClasses}
	var phiSeen []ir.Reg // φ-dsts already kept in the current block
	for _, b := range f.Blocks {
		phiSeen = phiSeen[:0]
		kept := b.Instrs[:0]
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			for i, a := range in.Args {
				if in.Op != ir.OpEnter {
					in.Args[i] = rename(a)
				}
			}
			if in.Op == ir.OpEnter {
				for i, p := range in.Args {
					in.Args[i] = rename(p)
					if i < len(f.Params) {
						f.Params[i] = in.Args[i]
					}
				}
			}
			if in.Dst != ir.NoReg {
				in.Dst = rename(in.Dst)
			}
			if in.Op == ir.OpPhi {
				dup := false
				for _, d := range phiSeen {
					if d == in.Dst {
						dup = true
						break
					}
				}
				if dup {
					st.PhiDups++
					continue // congruent φ already present
				}
				phiSeen = append(phiSeen, in.Dst)
			}
			kept = append(kept, inID)
		}
		b.Instrs = kept
	}
	// Renaming rewrites instructions in place, bypassing the Block
	// helpers.
	f.MarkCodeMutated()
	return st
}

func floatBitsOf(f float64) uint64 { return math.Float64bits(f) }
