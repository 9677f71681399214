package gvn_test

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/gvn"
	"repro/internal/ir"
	"repro/internal/ssa"
	"repro/internal/suite"
)

// oldClasses is the retired string-keyed partitioner, verbatim in
// spirit: refinement keys are spelled into byte buffers with
// encoding/binary and interned through map[string]uint32.  It is the
// reference the integer-keyed classes() must match partition-for-
// partition.
func oldClasses(f *ir.Func) map[ir.Reg]uint32 {
	type def struct {
		in       *ir.Instr
		block    *ir.Block
		enterIdx int
	}
	defs := map[ir.Reg]def{}
	var values []ir.Reg
	addValue := func(r ir.Reg, d def) {
		if _, dup := defs[r]; dup {
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

	initID := map[ir.Reg]uint32{}
	keyIDs := map[string]uint32{}
	intern := func(k []byte) uint32 {
		id, ok := keyIDs[string(k)]
		if !ok {
			id = uint32(len(keyIDs) + 1)
			keyIDs[string(k)] = id
		}
		return id
	}
	var buf []byte
	for _, v := range values {
		d := defs[v]
		buf = buf[:0]
		switch {
		case d.enterIdx >= 0:
			buf = append(buf, 'p')
			buf = binary.AppendUvarint(buf, uint64(d.enterIdx))
		case d.in.Op == ir.OpLoadI:
			buf = append(buf, 'c')
			buf = binary.AppendVarint(buf, d.in.Imm)
		case d.in.Op == ir.OpLoadF:
			buf = append(buf, 'f')
			buf = binary.AppendUvarint(buf, math.Float64bits(d.in.FImm))
		case d.in.Op == ir.OpPhi:
			buf = append(buf, 'F')
			buf = binary.AppendUvarint(buf, uint64(d.block.ID))
		case d.in.Op == ir.OpCall || d.in.Op.IsLoad():
			buf = append(buf, 'u')
			buf = binary.AppendUvarint(buf, uint64(v))
		default:
			buf = append(buf, 'o', byte(d.in.Op))
		}
		initID[v] = intern(buf)
	}

	class := map[ir.Reg]uint32{}
	for _, v := range values {
		class[v] = initID[v]
	}
	classOf := func(r ir.Reg) uint32 {
		if c, ok := class[r]; ok {
			return c
		}
		return ^uint32(r)
	}
	prevCount := -1
	for {
		next := map[ir.Reg]uint32{}
		ids := map[string]uint32{}
		for _, v := range values {
			d := defs[v]
			buf = buf[:0]
			buf = binary.AppendUvarint(buf, uint64(initID[v]))
			if d.enterIdx < 0 && d.in.Op != ir.OpLoadI && d.in.Op != ir.OpLoadF {
				for _, a := range d.in.Args {
					buf = binary.AppendUvarint(buf, uint64(classOf(a)))
				}
			}
			id, ok := ids[string(buf)]
			if !ok {
				id = uint32(len(ids) + 1)
				ids[string(buf)] = id
			}
			next[v] = id
		}
		count := len(ids)
		same := count == prevCount
		prevCount = count
		class = next
		if same {
			break
		}
	}
	return class
}

// samePartition reports whether the two class assignments induce the
// same equivalence relation over the given values: the class-id
// correspondence must be a bijection.
func samePartition(values []ir.Reg, newClass []uint32, oldClass map[ir.Reg]uint32) (ir.Reg, bool) {
	oldToNew := map[uint32]uint32{}
	newToOld := map[uint32]uint32{}
	for _, v := range values {
		nc, oc := newClass[v], oldClass[v]
		if m, ok := oldToNew[oc]; ok && m != nc {
			return v, false
		}
		if m, ok := newToOld[nc]; ok && m != oc {
			return v, false
		}
		oldToNew[oc] = nc
		newToOld[nc] = oc
	}
	return ir.NoReg, true
}

// TestIntegerKeyingMatchesStringKeying pins the GVN keying rewrite:
// over every function of every suite routine (in the SSA form GVN
// actually partitions), the integer-keyed refinement must produce
// exactly the congruence classes the byte-string keying produced.
func TestIntegerKeyingMatchesStringKeying(t *testing.T) {
	for _, r := range suite.All() {
		prog, err := r.Compile()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		for _, f := range prog.Funcs {
			ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, analysis.NewCache(f))
			values, newClass := gvn.ClassesForTest(f)
			oldClass := oldClasses(f)
			if len(oldClass) != len(values) {
				t.Fatalf("%s/%s: value count differs: old %d, new %d",
					r.Name, f.Name, len(oldClass), len(values))
			}
			if v, ok := samePartition(values, newClass, oldClass); !ok {
				t.Errorf("%s/%s: partitions differ at r%d", r.Name, f.Name, v)
			}
		}
	}
}
