package ir

import (
	"fmt"
	"hash/maphash"
	"strings"
)

// VerifyError aggregates the structural problems found in a function.
type VerifyError struct {
	Func     string
	Problems []string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("ir: verify %s: %s", e.Func, strings.Join(e.Problems, "; "))
}

// Verify checks the structural invariants of a function:
//
//   - every block ends in exactly one terminator, and terminators appear
//     nowhere else;
//   - jump has one successor, cbr two, ret none;
//   - successor/predecessor lists agree;
//   - φ-nodes appear only at the start of a block, have one operand
//     per predecessor, and no two φ-nodes in a block define the same
//     register;
//   - operand counts match each opcode's arity, destinations are present
//     exactly when required, and register numbers are in range;
//   - the entry block starts with enter and has no predecessors;
//   - every block entry is a valid arena ID and no instruction appears
//     in two places.
func Verify(f *Func) error {
	var probs []string
	errf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	if len(f.Blocks) == 0 {
		errf("no blocks")
		return &VerifyError{Func: f.Name, Problems: probs}
	}
	if in := f.EnterInstr(); in == nil {
		errf("entry block does not start with enter")
	} else if len(in.Args) != len(f.Params) {
		errf("enter has %d params, function declares %d", len(in.Args), len(f.Params))
	}
	if len(f.Entry().Preds) != 0 {
		errf("entry block has predecessors")
	}

	// Only a function with a repeated label pays for the map that
	// reports each repeat where it occurs.
	var seen map[string]bool
	if repeatsName(f.Blocks) {
		seen = map[string]bool{}
	}
	// One bit per arena ID; most functions fit the stack buffer.
	var small [64]uint64
	seenID := small[:]
	if w := (f.NumInstrIDs() + 63) / 64; w > len(small) {
		seenID = make([]uint64, w)
	}
	for bi, b := range f.Blocks {
		if b.ID != bi {
			errf("%s: stale block ID %d (want %d)", b.Name, b.ID, bi)
		}
		if seen != nil {
			if seen[b.Name] {
				errf("duplicate block name %s", b.Name)
			}
			seen[b.Name] = true
		}
		if b.Fn != f {
			errf("%s: wrong owning function", b.Name)
		}

		t := b.Terminator()
		if t == nil {
			errf("%s: missing terminator", b.Name)
		}
		phisDone := false
		var phiDsts map[Reg]bool
		for i, id := range b.Instrs {
			if id < 0 || int(id) >= f.NumInstrIDs() {
				errf("%s: instruction %d has out-of-range arena ID %d", b.Name, i, id)
				continue
			}
			if seenID[id>>6]&(1<<(id&63)) != 0 {
				errf("%s: arena ID %d appears in more than one block position", b.Name, id)
			}
			seenID[id>>6] |= 1 << (id & 63)
			in := f.Instr(id)
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				errf("%s: terminator %s not at block end", b.Name, in.Op)
			}
			if in.Op == OpPhi {
				if phisDone {
					errf("%s: φ after non-φ instruction", b.Name)
				}
				if len(in.Args) != len(b.Preds) {
					errf("%s: φ has %d operands for %d predecessors", b.Name, len(in.Args), len(b.Preds))
				}
				if in.Dst != NoReg {
					if phiDsts[in.Dst] {
						errf("%s: two φ-nodes define %s", b.Name, in.Dst)
					}
					if phiDsts == nil {
						phiDsts = map[Reg]bool{}
					}
					phiDsts[in.Dst] = true
				}
			} else if in.Op != OpEnter {
				phisDone = true
			}
			if in.Op == OpEnter && !(bi == 0 && i == 0) {
				errf("%s: enter outside entry position", b.Name)
			}
			if a := in.Op.Arity(); a >= 0 && len(in.Args) != a {
				errf("%s: %s has %d operands, wants %d", b.Name, in.Op, len(in.Args), a)
			}
			if in.Op.HasDst() && in.Dst == NoReg {
				errf("%s: %s missing destination", b.Name, in.Op)
			}
			// Calls may or may not produce a value.
			if !in.Op.HasDst() && in.Dst != NoReg && in.Op != OpCall {
				errf("%s: %s has spurious destination", b.Name, in.Op)
			}
			if in.Op == OpRet && len(in.Args) > 1 {
				errf("%s: ret with %d values", b.Name, len(in.Args))
			}
			for _, r := range in.Args {
				if r == NoReg || int(r) >= f.NumRegs() {
					errf("%s: operand register %s out of range", b.Name, r)
				}
			}
			if in.Dst != NoReg && int(in.Dst) >= f.NumRegs() {
				errf("%s: destination register %s out of range", b.Name, in.Dst)
			}
		}

		if t != nil {
			want := -1
			switch t.Op {
			case OpJump:
				want = 1
			case OpCBr:
				want = 2
			case OpRet:
				want = 0
			}
			if want >= 0 && len(b.Succs) != want {
				errf("%s: %s with %d successors (want %d)", b.Name, t.Op, len(b.Succs), want)
			}
		}
		for _, s := range b.Succs {
			if s.PredIndex(b) < 0 {
				errf("edge %s->%s missing from %s.Preds", b.Name, s.Name, s.Name)
			}
		}
		for _, p := range b.Preds {
			found := false
			for _, s := range p.Succs {
				if s == b {
					found = true
				}
			}
			if !found {
				errf("edge %s->%s missing from %s.Succs", p.Name, b.Name, p.Name)
			}
		}
	}
	if len(probs) == 0 {
		return nil
	}
	return &VerifyError{Func: f.Name, Problems: probs}
}

// nameSeed seeds the hashes repeatsName probes with.
var nameSeed = maphash.MakeSeed()

// repeatsName reports whether two blocks share a name.  It probes an
// open-addressing table of block indices, at most half full, that most
// functions fit on the stack.
func repeatsName(blocks []*Block) bool {
	var small [128]int32
	size := len(small)
	for size < 2*len(blocks) {
		size *= 2
	}
	table := small[:]
	if size > len(small) {
		table = make([]int32, size)
	}
	mask := size - 1
	for i, b := range blocks {
		h := int(maphash.String(nameSeed, b.Name)) & mask
		for ; table[h] != 0; h = (h + 1) & mask {
			if blocks[table[h]-1].Name == b.Name {
				return true
			}
		}
		table[h] = int32(i + 1)
	}
	return false
}

// VerifyProgram verifies every function in the program.
func VerifyProgram(p *Program) error {
	for _, f := range p.Funcs {
		if err := Verify(f); err != nil {
			return err
		}
	}
	return nil
}
