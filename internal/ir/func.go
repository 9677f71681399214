package ir

import "fmt"

// Func is a single procedure: an entry block, a set of basic blocks and
// a virtual-register namespace.  Blocks[0] is always the entry block,
// whose first instruction is the enter operation defining the formal
// parameters.
//
// The function owns all storage for its instructions: the chunked
// instruction arena (see arena.go), the operand pool backing the Args
// lists, and the symbol table interning call symbols and block labels.
type Func struct {
	Name   string
	Params []Reg // parameter registers, in order (also on the enter instr)
	Blocks []*Block

	// Arena storage (see arena.go).
	arena     [][]Instr
	numInstrs InstrID
	argPool   []Reg
	syms      []string
	symIdx    map[string]Sym

	nextReg  Reg
	nextName int

	// Analysis generations.  cfgGen advances whenever the block/edge
	// structure changes (blocks added or removed, edges rewired);
	// codeGen advances on any mutation at all, structural or
	// instruction-level.  Cached analyses remember the generation they
	// were built at and rebuild when it has moved on (see
	// internal/analysis).  The ir and cfg mutating helpers bump these
	// automatically; passes that rewrite instruction slices directly
	// must call MarkCodeMutated themselves.
	cfgGen  uint64
	codeGen uint64
}

// CFGGeneration returns the structural mutation counter: it advances
// whenever blocks or edges change, invalidating CFG-shape analyses
// (reverse postorder, dominators, loops).
func (f *Func) CFGGeneration() uint64 { return f.cfgGen }

// CodeGeneration returns the code mutation counter: it advances on any
// mutation (a superset of CFGGeneration), invalidating analyses that
// read instructions, such as liveness.
func (f *Func) CodeGeneration() uint64 { return f.codeGen }

// MarkCFGMutated records a structural change (blocks/edges), bumping
// both generations.
func (f *Func) MarkCFGMutated() {
	f.cfgGen++
	f.codeGen++
}

// MarkCodeMutated records an instruction-level change that left the
// block/edge structure intact.  Passes that rewrite instruction slices
// in place (rather than through the Block helpers) call this so cached
// liveness is invalidated.
func (f *Func) MarkCodeMutated() { f.codeGen++ }

// NewFunc creates an empty function with an entry block containing an
// enter instruction for nparams parameters.
func NewFunc(name string, nparams int) *Func {
	f := &Func{Name: name, nextReg: 1}
	entry := f.NewBlock()
	params := make([]Reg, nparams)
	for i := range params {
		params[i] = f.NewReg()
	}
	f.Params = params
	entry.Append(f.NewInstr(OpEnter, NoReg, params...))
	return f
}

// NewReg allocates a fresh virtual register.  Allocating widens the
// register namespace that liveness sets are sized by, so it counts as
// a code mutation.
func (f *Func) NewReg() Reg {
	r := f.nextReg
	f.nextReg++
	f.codeGen++
	return r
}

// NumRegs returns one more than the highest allocated register, so that
// slices indexed by Reg can be sized with it.
func (f *Func) NumRegs() int { return int(f.nextReg) }

// SetRegHint raises the register counter to at least n (used by the
// parser when register numbers appear in the text).
func (f *Func) SetRegHint(n Reg) {
	if n >= f.nextReg {
		f.nextReg = n + 1
	}
}

// NewBlock appends a fresh, empty block labelled b<n>.  A parsed
// function's labels need not be dense, so n skips every name the
// function's symbol table already holds.
func (f *Func) NewBlock() *Block {
	for {
		n := len(f.syms)
		s := f.InternSym(fmt.Sprintf("b%d", f.nextName))
		f.nextName++
		if int(s) >= n {
			return f.appendBlock(f.syms[s])
		}
	}
}

// NewBlockNamed appends a fresh block with the given label, interned
// into the function's symbol table.
func (f *Func) NewBlockNamed(name string) *Block {
	f.nextName++
	return f.appendBlock(f.internedName(name))
}

func (f *Func) appendBlock(name string) *Block {
	b := &Block{ID: len(f.Blocks), Name: name, Fn: f}
	f.Blocks = append(f.Blocks, b)
	f.MarkCFGMutated()
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// EnterInstr returns the enter instruction in the entry block, or nil.
func (f *Func) EnterInstr() *Instr {
	if len(f.Blocks) > 0 && len(f.Blocks[0].Instrs) > 0 {
		if in := f.Blocks[0].Instr(0); in.Op == OpEnter {
			return in
		}
	}
	return nil
}

// Renumber reassigns dense block IDs after blocks are added or removed.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// RemoveBlocks deletes every block for which dead reports true, fixing
// IDs.  Callers must already have unlinked all edges into dead blocks.
func (f *Func) RemoveBlocks(dead func(*Block) bool) {
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if !dead(b) {
			kept = append(kept, b)
		}
	}
	tail := f.Blocks[len(kept):]
	f.Blocks = kept
	for i := range tail {
		tail[i] = nil // release the dropped blocks to the collector
	}
	f.Renumber()
	f.MarkCFGMutated()
}

// InstrCount returns the static number of instructions in the function.
// This is the metric of the paper's Table 2 (code expansion).
func (f *Func) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// NameKinds classifies f's registers by their definitions: expr[r] is
// set when some instruction defines r as an expression name (see
// Instr.DefinesExprName), variable[r] when a copy, call, φ or enter
// defines it.  A register may be both.  Both tables are NumRegs long;
// out-of-range registers are ignored.
func (f *Func) NameKinds() (expr, variable []bool) {
	nr := f.NumRegs()
	expr, variable = make([]bool, nr), make([]bool, nr)
	mark := func(tab []bool, r Reg) {
		if r != NoReg && int(r) < nr {
			tab[r] = true
		}
	}
	f.ForEachInstr(func(_ *Block, _ int, in *Instr) {
		switch {
		case in.DefinesExprName():
			mark(expr, in.Dst)
		case in.Op == OpEnter:
			for _, p := range in.Args {
				mark(variable, p)
			}
		default:
			mark(variable, in.Dst)
		}
	})
	return expr, variable
}

// ForEachInstr calls fn for every instruction in block order.
func (f *Func) ForEachInstr(fn func(b *Block, i int, in *Instr)) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			fn(b, i, f.Instr(b.Instrs[i]))
		}
	}
}

// Clone returns a deep copy of the function.  The clone's arena is
// compacted to the live instructions in block order, so IDs are dense
// again even if the original accumulated dead arena slots; IDs are
// therefore not preserved across Clone.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:     f.Name,
		Params:   append([]Reg(nil), f.Params...),
		syms:     append([]string(nil), f.syms...),
		nextReg:  f.nextReg,
		nextName: f.nextName,
	}
	old2new := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Name: b.Name, Fn: nf}
		nb.Instrs = make([]InstrID, len(b.Instrs))
		for i, id := range b.Instrs {
			in := f.Instr(id)
			cp := nf.allocInstr()
			cid := cp.id
			*cp = *in
			cp.id = cid
			if len(in.Args) > 0 {
				a := nf.allocArgs(len(in.Args))
				copy(a, in.Args)
				cp.Args = a
			} else {
				cp.Args = nil
			}
			nb.Instrs[i] = cp.ID()
		}
		nf.Blocks = append(nf.Blocks, nb)
		old2new[b] = nb
	}
	for _, b := range f.Blocks {
		nb := old2new[b]
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, old2new[s])
		}
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, old2new[p])
		}
	}
	return nf
}

// Program is a collection of functions plus a static data segment
// layout.  GlobalSize is the number of bytes of flat memory the program
// needs for its statically allocated arrays; Data holds optional
// initialized words keyed by byte offset.
type Program struct {
	Funcs      []*Func
	GlobalSize int64
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Clone deep-copies the whole program.
func (p *Program) Clone() *Program {
	np := &Program{GlobalSize: p.GlobalSize}
	for _, f := range p.Funcs {
		np.Funcs = append(np.Funcs, f.Clone())
	}
	return np
}

// InstrCount returns the static instruction count over all functions.
func (p *Program) InstrCount() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.InstrCount()
	}
	return n
}
