package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
)

// sampleFunc exercises every syntactic form the printer emits.
const sampleFunc = `
func sample(r1, r2) {
b0:
    enter(r1, r2)
    loadI 42 => r3
    loadF 2.5 => r4
    add r1, r3 => r5
    fadd r4, r4 => r6
    sub r5, r3 => r7
    neg r7 => r8
    i2f r8 => r9
    f2i r9 => r10
    sqrt r6 => r11
    cmpLT r10, r3 => r12
    cbr r12 -> b1, b2
b1:
    stw r5 => [r3]
    ldw [r3] => r13
    std r6 => [r5]
    ldd [r5] => r14
    sts r6 => [r5]
    lds [r5] => r15
    call helper(r13, r5) => r16
    copy r16 => r17
    jump -> b2
b2:
    min r3, r5 => r18
    max r3, r5 => r19
    and r3, r5 => r20
    or r3, r5 => r21
    xor r3, r5 => r22
    not r3 => r23
    shl r3, r5 => r24
    shr r3, r5 => r25
    mod r5, r3 => r26
    div r5, r3 => r27
    fabs r4 => r28
    abs r8 => r29
    ret r5
}
`

func TestRoundTrip(t *testing.T) {
	f, err := ir.ParseFuncString(sampleFunc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	text1 := f.String()
	f2, err := ir.ParseFuncString(text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	text2 := f2.String()
	if text1 != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestRoundTripProgram(t *testing.T) {
	src := "program globalsize=128\n" + sampleFunc + `
func helper(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    ret r3
}
`
	p, err := ir.ParseProgramString(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.GlobalSize != 128 {
		t.Errorf("globalsize = %d, want 128", p.GlobalSize)
	}
	if len(p.Funcs) != 2 {
		t.Fatalf("got %d functions", len(p.Funcs))
	}
	text := p.String()
	p2, err := ir.ParseProgramString(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if p2.String() != text {
		t.Error("program round trip not stable")
	}
}

func TestParseRejects(t *testing.T) {
	progCases := []struct{ src, want string }{
		{"", "empty input"},
		{"program globalsize=x\n", "bad globalsize"},
		{"program foo=1\n", "unknown program field"},
	}
	for _, c := range progCases {
		_, err := ir.ParseProgramString(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: got %v, want error containing %q", c.src, err, c.want)
		}
	}
	cases := []struct{ src, want string }{
		{"func f() {\n}\n", "no blocks"},
		{"func f() {\nb0:\n    bogus r1 => r2\n}\n", "unknown opcode"},
		{"func f() {\n    loadI 1 => r1\n}\n", "before first label"},
		{"func f() {\nb0:\n    jump -> nowhere\n}\n", "undefined label"},
		{"func f() {\nb0:\n    loadI 1 => r1\nb0:\n    ret\n}\n", "duplicate label"},
		{"func f() {\nb0:\n    add r1 => r2\n}\n", "expects 2 operands"},
		{"func f() {\nb0:\n    add r1, r2\n}\n", "requires a destination"},
		{"func f() {\nb0:\n    loadI 9999999999999999999999 => r1\n}\n", "bad integer immediate"},
		{"func f() {\nb0:\n    add rx, r2 => r3\n}\n", "bad register"},
	}
	for _, c := range cases {
		_, err := ir.ParseFuncString(c.src)
		if err == nil {
			t.Errorf("%q: expected error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestVerifyCatches(t *testing.T) {
	// Build structurally broken functions by hand.
	t.Run("missing terminator", func(t *testing.T) {
		f := ir.NewFunc("f", 0)
		if err := ir.Verify(f); err == nil {
			t.Error("expected error for unterminated block")
		}
	})
	t.Run("cbr with one successor", func(t *testing.T) {
		f := ir.NewFunc("f", 1)
		b := f.Entry()
		b2 := f.NewBlock()
		b.Append(b.Fn.NewInstr(ir.OpCBr, ir.NoReg, f.Params[0]))
		ir.AddEdge(b, b2)
		b2.Append(b2.Fn.NewInstr(ir.OpRet, ir.NoReg))
		if err := ir.Verify(f); err == nil || !strings.Contains(err.Error(), "successors") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("phi arity mismatch", func(t *testing.T) {
		f := ir.NewFunc("f", 1)
		b := f.Entry()
		b2 := f.NewBlock()
		b.Append(b.Fn.NewInstr(ir.OpJump, ir.NoReg))
		ir.AddEdge(b, b2)
		phi := f.NewInstr(ir.OpPhi, f.NewReg(), f.Params[0], f.Params[0])
		b2.InsertAt(0, phi)
		b2.Append(b2.Fn.NewInstr(ir.OpRet, ir.NoReg))
		if err := ir.Verify(f); err == nil || !strings.Contains(err.Error(), "φ") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("register out of range", func(t *testing.T) {
		f := ir.NewFunc("f", 0)
		b := f.Entry()
		b.Append(b.Fn.NewLoadI(ir.Reg(9999), 1))
		b.Append(b.Fn.NewInstr(ir.OpRet, ir.NoReg))
		if err := ir.Verify(f); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("dangling pred", func(t *testing.T) {
		f := ir.NewFunc("f", 0)
		b := f.Entry()
		b2 := f.NewBlock()
		b.Append(b.Fn.NewInstr(ir.OpRet, ir.NoReg))
		b2.Append(b2.Fn.NewInstr(ir.OpRet, ir.NoReg))
		b2.Preds = append(b2.Preds, b) // bogus: b has no edge to b2
		if err := ir.Verify(f); err == nil || !strings.Contains(err.Error(), "missing from") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("duplicate block name", func(t *testing.T) {
		f := ir.NewFunc("f", 0)
		b := f.Entry()
		b2, b3 := f.NewBlockNamed("loop"), f.NewBlockNamed("loop")
		b.Append(b.Fn.NewInstr(ir.OpJump, ir.NoReg))
		ir.AddEdge(b, b2)
		b2.Append(b2.Fn.NewInstr(ir.OpJump, ir.NoReg))
		ir.AddEdge(b2, b3)
		b3.Append(b3.Fn.NewInstr(ir.OpRet, ir.NoReg))
		err := ir.Verify(f)
		if err == nil || strings.Count(err.Error(), "duplicate block name loop") != 1 {
			t.Errorf("got %v", err)
		}
	})
	t.Run("duplicate block name among many", func(t *testing.T) {
		// More blocks than the name check's stack table holds.
		f := ir.NewFunc("f", 0)
		prev := f.Entry()
		for i := range 300 {
			name := fmt.Sprintf("L%d", i)
			if i == 299 {
				name = "L7"
			}
			b := f.NewBlockNamed(name)
			prev.Append(prev.Fn.NewInstr(ir.OpJump, ir.NoReg))
			ir.AddEdge(prev, b)
			prev = b
		}
		prev.Append(prev.Fn.NewInstr(ir.OpRet, ir.NoReg))
		err := ir.Verify(f)
		if err == nil || strings.Count(err.Error(), "duplicate block name L7") != 1 {
			t.Errorf("got %v", err)
		}
		f.Blocks[len(f.Blocks)-1].Name = "L299"
		if err := ir.Verify(f); err != nil {
			t.Errorf("distinct names rejected: %v", err)
		}
	})
}

func TestCloneIndependence(t *testing.T) {
	f, err := ir.ParseFuncString(sampleFunc)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	if g.String() != f.String() {
		t.Fatal("clone differs from original")
	}
	// Mutating the clone must not affect the original.
	g.Blocks[0].Instr(1).Imm = 999
	g.Blocks[0].Instr(3).Args[0] = ir.Reg(2)
	if strings.Contains(f.String(), "999") {
		t.Error("mutating clone leaked into original")
	}
	// Edges must reference the clone's blocks, not the original's.
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Fn != g {
				t.Fatal("clone successor points into original function")
			}
		}
	}
}

func TestRemoveEdgeTrimsPhis(t *testing.T) {
	f := ir.NewFunc("f", 2)
	b0 := f.Entry()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b0.Append(b0.Fn.NewInstr(ir.OpCBr, ir.NoReg, f.Params[0]))
	ir.AddEdge(b0, b1)
	ir.AddEdge(b0, b2)
	b1.Append(b1.Fn.NewInstr(ir.OpJump, ir.NoReg))
	ir.AddEdge(b1, b3)
	b2.Append(b2.Fn.NewInstr(ir.OpJump, ir.NoReg))
	ir.AddEdge(b2, b3)
	phi := f.NewInstr(ir.OpPhi, f.NewReg(), f.Params[0], f.Params[1])
	b3.InsertAt(0, phi)
	b3.Append(b3.Fn.NewInstr(ir.OpRet, ir.NoReg, phi.Dst))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	ir.RemoveEdge(b2, b3)
	if len(phi.Args) != 1 || phi.Args[0] != f.Params[0] {
		t.Errorf("φ operands after edge removal: %v", phi.Args)
	}
	if len(b3.Preds) != 1 {
		t.Errorf("preds after edge removal: %d", len(b3.Preds))
	}
}

func TestBlockHelpers(t *testing.T) {
	f := ir.NewFunc("f", 0)
	b := f.Entry()
	b.Append(b.Fn.NewLoadI(f.NewReg(), 1))
	b.Append(b.Fn.NewInstr(ir.OpRet, ir.NoReg))
	// Append must keep the terminator last.
	b.Append(b.Fn.NewLoadI(f.NewReg(), 2))
	if b.Terminator() == nil || b.Terminator().Op != ir.OpRet {
		t.Fatal("Append broke the terminator position")
	}
	if len(b.Instrs) != 4 {
		t.Fatalf("got %d instrs", len(b.Instrs))
	}
	b.RemoveAt(1)
	if len(b.Instrs) != 3 {
		t.Fatalf("RemoveAt: got %d instrs", len(b.Instrs))
	}
}

func TestInstrHelpers(t *testing.T) {
	f := ir.NewFunc("f", 0)
	in := f.NewInstr(ir.OpAdd, 3, 1, 2)
	if n := in.ReplaceUses(1, 7); n != 1 || in.Args[0] != 7 {
		t.Errorf("ReplaceUses: n=%d args=%v", n, in.Args)
	}
	cp := f.CloneInstr(in, f)
	cp.Args[0] = 9
	if in.Args[0] == 9 {
		t.Error("CloneInstr shares Args")
	}
	if !f.NewLoadI(1, 5).IsConst() || f.NewCopy(1, 2).IsConst() {
		t.Error("IsConst misclassifies")
	}
}

func TestOpTable(t *testing.T) {
	// Mnemonic lookup round-trips for every op with a name.
	for op := ir.OpLoadI; op <= ir.OpPhi; op++ {
		got, ok := ir.OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	// Associative ops are commutative.
	for op := ir.OpLoadI; op <= ir.OpPhi; op++ {
		if op.Associative() && !op.Commutative() {
			t.Errorf("%s associative but not commutative", op)
		}
	}
	if !ir.OpStoreW.WritesMemory() || !ir.OpLoadW.ReadsMemory() {
		t.Error("memory flags wrong")
	}
	if ir.OpSub.Associative() || ir.OpShl.Associative() {
		t.Error("sub/shl must not be associative")
	}
}
