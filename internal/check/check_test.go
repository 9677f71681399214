package check_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minift"
	"repro/internal/ssa"
)

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.ParseProgramString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := minift.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

const cleanSrc = `
func leaf(x: real, k: int): real {
    if k % 2 == 0 {
        return x * 2.0
    }
    return x + 1.0
}

func main(n: int): real {
    var a: [16]real
    var t: real = 0.0
    for i = 1 to n {
        a[i] = real(i * i) / 4.0
    }
    for i = 1 to n {
        t = t + a[i] * 3.0 + leaf(t, i)
    }
    return t
}
`

// TestDefUseCleanOnFrontEndOutput: naive front-end code is fully
// defined — no diagnostics, before or after any single pass.
func TestDefUseCleanOnFrontEndOutput(t *testing.T) {
	prog := compile(t, cleanSrc)
	for _, f := range prog.Funcs {
		if diags := check.DefUse(f, false, analysis.NewCache(f)); len(diags) != 0 {
			t.Errorf("%s: unexpected diagnostics: %v", f.Name, diags)
		}
	}
	for _, pass := range core.AllPasses() {
		p := prog.Clone()
		for _, f := range p.Funcs {
			pass.Run(&core.PassContext{Ctx: context.Background(), Func: f, Analyses: analysis.NewCache(f)})
			if diags := check.DefUse(f, false, analysis.NewCache(f)); len(diags) != 0 {
				t.Errorf("after %s, %s: unexpected diagnostics: %v", pass.Name, f.Name, diags)
			}
		}
	}
}

func TestDefUseUndefinedRegister(t *testing.T) {
	p := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    add r1, r7 => r2
    ret r2
}
`)
	diags := check.DefUse(p.Funcs[0], false, analysis.NewCache(p.Funcs[0]))
	if len(check.Errors(diags)) != 1 || !strings.Contains(diags[0].Msg, "undefined register r7") {
		t.Fatalf("want one undefined-register error, got %v", diags)
	}
	if got := diags[0].String(); !strings.Contains(got, "f/b0:1") || !strings.Contains(got, "[defuse]") {
		t.Errorf("diagnostic location rendering: %q", got)
	}
}

// TestDefUseDominance: a definition on only one side of a diamond does
// not dominate a use after the join.
func TestDefUseDominance(t *testing.T) {
	p := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadI 1 => r2
    jump -> b3
b2:
    jump -> b3
b3:
    ret r2
}
`)
	diags := check.DefUse(p.Funcs[0], false, analysis.NewCache(p.Funcs[0]))
	if len(check.Errors(diags)) != 1 || !strings.Contains(diags[0].Msg, "not dominated") {
		t.Fatalf("want one dominance error, got %v", diags)
	}
}

// TestDefUsePhiOperandEdge: each φ operand is checked along its own
// predecessor edge, so an operand defined only on the *other* side of
// the diamond is flagged — and a correct φ is not.
func TestDefUsePhiOperandEdge(t *testing.T) {
	good := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadI 1 => r2
    jump -> b3
b2:
    loadI 2 => r3
    jump -> b3
b3:
    phi r2, r3 => r4
    ret r4
}
`)
	if diags := check.DefUse(good.Funcs[0], false, analysis.NewCache(good.Funcs[0])); len(diags) != 0 {
		t.Fatalf("well-formed φ flagged: %v", diags)
	}
	bad := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadI 1 => r2
    jump -> b3
b2:
    loadI 2 => r3
    jump -> b3
b3:
    phi r2, r2 => r4
    ret r4
}
`)
	diags := check.Errors(check.DefUse(bad.Funcs[0], false, analysis.NewCache(bad.Funcs[0])))
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "b2->b3") {
		t.Fatalf("want one φ-edge error naming edge b2->b3, got %v", diags)
	}
}

// TestDefUseLoopCarried: a φ whose back-edge operand is defined later
// in the loop body is legal SSA; the first-iteration value comes from
// the preheader operand.
func TestDefUseLoopCarried(t *testing.T) {
	p := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    jump -> b1
b1:
    phi r2, r3 => r4
    add r4, r1 => r3
    cmpLT r3, r1 => r5
    cbr r5 -> b1, b2
b2:
    ret r3
}
`)
	if diags := check.DefUse(p.Funcs[0], false, analysis.NewCache(p.Funcs[0])); len(diags) != 0 {
		t.Fatalf("loop-carried φ flagged: %v", diags)
	}
}

// TestDefUseUseBeforeDefInLoop: reading a register that is only
// assigned *later* in the same loop body is undefined on the first
// iteration, even though a definition reaches along the back edge.
func TestDefUseUseBeforeDefInLoop(t *testing.T) {
	p := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    jump -> b1
b1:
    add r2, r3 => r2
    loadI 7 => r3
    cmpLT r2, r1 => r4
    cbr r4 -> b1, b2
b2:
    ret r2
}
`)
	diags := check.Errors(check.DefUse(p.Funcs[0], false, analysis.NewCache(p.Funcs[0])))
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "r3") {
		t.Fatalf("want one first-iteration-undefined error for r3, got %v", diags)
	}
}

func TestDefUseStrictSSA(t *testing.T) {
	p := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    loadI 2 => r2
    ret r2
}
`)
	if diags := check.DefUse(p.Funcs[0], false, analysis.NewCache(p.Funcs[0])); len(diags) != 0 {
		t.Fatalf("multiple defs are legal outside SSA, got %v", diags)
	}
	diags := check.Errors(check.DefUse(p.Funcs[0], true, analysis.NewCache(p.Funcs[0])))
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "defined 2 times") {
		t.Fatalf("strict SSA should flag the double definition, got %v", diags)
	}
}

// TestDefUseStrictAfterSSABuild: ssa.Build output satisfies the strict
// single-assignment check on every suite-style function.
func TestDefUseStrictAfterSSABuild(t *testing.T) {
	prog := compile(t, cleanSrc)
	for _, f := range prog.Funcs {
		ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}, analysis.NewCache(f))
		if diags := check.DefUse(f, true, analysis.NewCache(f)); len(diags) != 0 {
			t.Errorf("%s after ssa.Build: %v", f.Name, diags)
		}
	}
}

func TestDefUseDeadPhiWarning(t *testing.T) {
	p := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadI 1 => r2
    jump -> b3
b2:
    loadI 2 => r3
    jump -> b3
b3:
    phi r2, r3 => r4
    ret r1
}
`)
	diags := check.DefUse(p.Funcs[0], false, analysis.NewCache(p.Funcs[0]))
	if len(diags) != 1 || diags[0].Severity != check.SevWarning || !strings.Contains(diags[0].Msg, "dead φ") {
		t.Fatalf("want one dead-φ warning, got %v", diags)
	}
}

func TestDisciplineCrossBlockExpressionName(t *testing.T) {
	p := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    add r1, r1 => r2
    jump -> b1
b1:
    ret r2
}
`)
	diags := check.Discipline(p.Funcs[0])
	if len(check.Errors(diags)) != 1 || !strings.Contains(diags[0].Msg, "live across a block boundary") {
		t.Fatalf("want one cross-block error, got %v", diags)
	}

	// Normalize establishes the contract; the lint must then be clean.
	f := p.Funcs[0]
	core.Normalize(f)
	if diags := check.Errors(check.Discipline(f)); len(diags) != 0 {
		t.Fatalf("normalized function still flagged: %v", diags)
	}
}

// TestDisciplineAfterPipelineFront: reassociation + gvn + normalize —
// the paper's naming stage — must leave zero discipline errors on
// front-end output.
func TestDisciplineAfterPipelineFront(t *testing.T) {
	passes, err := core.Passes("reassoc", "gvn", "normalize")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.RunPasses(compile(t, cleanSrc), passes, core.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if diags := check.Errors(check.Discipline(f)); len(diags) != 0 {
			t.Errorf("%s: discipline errors after reassoc+gvn+normalize: %v", f.Name, diags)
		}
	}
}

func TestValidatePassFastPathOnRenaming(t *testing.T) {
	before := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    add r1, r1 => r2
    ret r2
}
`)
	after := parse(t, `
program globalsize=0

func f(r5) {
b0:
    enter(r5)
    add r5, r5 => r9
    ret r9
}
`)
	if diags := check.ValidatePass(before, after, "rename", check.ValidateOptions{}); len(diags) != 0 {
		t.Fatalf("pure renaming flagged: %v", diags)
	}
}

func TestValidatePassCatchesMiscompile(t *testing.T) {
	before := parse(t, `
program globalsize=0

func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    ret r3
}
`)
	after := before.Clone()
	after.Funcs[0].Blocks[0].Instr(1).Op = ir.OpSub // add -> sub: wrong
	diags := check.ValidatePass(before, after, "bad-fold", check.ValidateOptions{})
	if len(check.Errors(diags)) == 0 {
		t.Fatal("miscompile not caught")
	}
	d := diags[0]
	if d.Pass != "bad-fold" || d.Analyzer != "validate" || d.Func != "f" {
		t.Errorf("diagnostic should name the pass and function: %+v", d)
	}
}

// TestValidatePassFloatParams: parameter kinds are inferred, so a
// function over floats is exercised with float inputs (an all-int guess
// would trap and skip every input, validating nothing).
func TestValidatePassFloatParams(t *testing.T) {
	before := parse(t, `
program globalsize=0

func f(r1, r2) {
b0:
    enter(r1, r2)
    fadd r1, r2 => r3
    ret r3
}
`)
	after := before.Clone()
	after.Funcs[0].Blocks[0].Instr(1).Op = ir.OpFMul
	diags := check.ValidatePass(before, after, "bad", check.ValidateOptions{})
	if len(check.Errors(diags)) == 0 {
		t.Fatal("float miscompile not caught — param kinds likely misinferred")
	}
}

// TestValidatePassMemory: for an exact pass, dropping a store is caught
// through the final-memory comparison even when the return value and
// output agree; a pass granted a float tolerance is not held to the
// memory image, so the same memory-only mismatch passes there.
func TestValidatePassMemory(t *testing.T) {
	before := parse(t, `
program globalsize=16

func f(r1) {
b0:
    enter(r1)
    loadI 8 => r2
    stw r1 => [r2]
    ret r1
}
`)
	after := before.Clone()
	bb := after.Funcs[0].Blocks[0]
	bb.RemoveAt(2) // drop the store
	diags := check.ValidatePass(before, after, "bad-dse", check.ValidateOptions{})
	if len(check.Errors(diags)) == 0 {
		t.Fatal("dropped store not caught")
	}
	if !strings.Contains(diags[0].Msg, "memory") {
		t.Errorf("expected a memory diagnostic, got %v", diags[0])
	}
	if diags := check.ValidatePass(before, after, "reassoc", check.ValidateOptions{FloatTol: 1e-6}); len(diags) != 0 {
		t.Errorf("memory compared under a float tolerance: %v", diags)
	}
}

// TestValidatePassRunaway: a transformed function that loops where the
// reference returns is reported as a runaway loop once it exceeds the
// budget derived from the reference's step count.
func TestValidatePassRunaway(t *testing.T) {
	before := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    jump -> b1
b1:
    ret r1
}
`)
	after := parse(t, `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    jump -> b1
b1:
    jump -> b1
}
`)
	diags := check.ValidatePass(before, after, "bad-loop", check.ValidateOptions{})
	if len(check.Errors(diags)) == 0 {
		t.Fatal("runaway loop not caught")
	}
	if !strings.Contains(diags[0].Msg, "runaway loop") {
		t.Errorf("expected a runaway-loop diagnostic, got %v", diags[0])
	}
}

// TestValidatePassTolerance: with a relative tolerance, rounding-level
// float differences (a reassociation) pass, while a real miscompile is
// still caught.
func TestValidatePassTolerance(t *testing.T) {
	before := parse(t, `
program globalsize=0

func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    fadd r1, r2 => r4
    fadd r4, r3 => r5
    ret r5
}
`)
	reassociated := parse(t, `
program globalsize=0

func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    fadd r2, r3 => r4
    fadd r4, r1 => r5
    ret r5
}
`)
	opt := check.ValidateOptions{FloatTol: 1e-6}
	if diags := check.ValidatePass(before, reassociated, "reassoc", opt); len(diags) != 0 {
		t.Fatalf("rounding-level difference flagged despite tolerance: %v", diags)
	}
	broken := before.Clone()
	broken.Funcs[0].Blocks[0].Instr(1).Op = ir.OpFMul
	if diags := check.ValidatePass(before, broken, "reassoc", opt); len(check.Errors(diags)) == 0 {
		t.Fatal("real miscompile slipped through the tolerance")
	}
}
