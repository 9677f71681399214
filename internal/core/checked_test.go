package core_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minift"
	"repro/internal/suite"
)

// TestCheckedOptimizeSuiteClean is the acceptance gate for the checker:
// every Table-1 level over the full suite corpus, with per-pass
// dataflow verification and translation validation enabled, must
// produce zero diagnostics.
func TestCheckedOptimizeSuiteClean(t *testing.T) {
	routines := suite.All()
	if testing.Short() {
		routines = routines[:6]
	}
	// ValidatePass's three inputs matter: the third, degenerate input
	// tuple is what once exposed NaN-sign sensitivity in the memory
	// comparison (decomp at reassociation; see interp.FloatVal).
	for _, r := range routines {
		prog, err := r.Compile()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		for _, level := range core.Levels {
			passes, err := core.Passes(core.PassNames(level)...)
			if err != nil {
				t.Fatal(err)
			}
			_, diags, err := core.CheckedRun(prog, passes, core.OptimizeOptions{}, core.CheckConfig{Validate: true})
			if err != nil {
				t.Errorf("%s at %s: %v", r.Name, level, err)
				continue
			}
			for _, d := range diags {
				t.Errorf("%s at %s: %s", r.Name, level, d)
			}
		}
	}
}

// TestCheckedRunCatchesMiscompilingPass: a deliberately broken peephole
// rule — folding add into sub — must be caught by the translation
// validator with a diagnostic naming the offending pass.
func TestCheckedRunCatchesMiscompilingPass(t *testing.T) {
	prog, err := minift.Compile(`
func main(a: int, b: int): int {
    var s: int = 0
    for i = 1 to a {
        s = s + b * i
    }
    return s
}
`)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.Pass{Name: "bad-peephole", Run: func(pc *core.PassContext) any {
		pc.Func.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if in.Op == ir.OpAdd {
				in.Op = ir.OpSub
			}
		})
		pc.Func.MarkCodeMutated()
		return nil
	}}
	_, diags, err := core.CheckedRun(prog, []core.Pass{bad}, core.OptimizeOptions{}, core.CheckConfig{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	errs := check.Errors(diags)
	if len(errs) == 0 {
		t.Fatal("miscompiling pass not caught")
	}
	found := false
	for _, d := range errs {
		if d.Pass == "bad-peephole" && d.Analyzer == "validate" {
			found = true
		}
	}
	if !found {
		t.Errorf("no validate diagnostic names the offending pass: %v", errs)
	}
}

// TestCheckedRunCatchesUndefinedUse: a pass that deletes a definition
// but not its uses is caught by the dataflow verifier even without
// translation validation.
func TestCheckedRunCatchesUndefinedUse(t *testing.T) {
	prog, err := ir.ParseProgramString(`
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    loadI 3 => r2
    add r1, r2 => r3
    ret r3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.Pass{Name: "bad-dce", Run: func(pc *core.PassContext) any {
		pc.Func.Entry().RemoveAt(1) // drop "loadI 3 => r2", leaving r2 undefined
		return nil
	}}
	_, diags, err := core.CheckedRun(prog, []core.Pass{bad}, core.OptimizeOptions{}, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	errs := check.Errors(diags)
	if len(errs) == 0 || errs[0].Analyzer != "defuse" || errs[0].Pass != "bad-dce" {
		t.Fatalf("want a defuse error naming bad-dce, got %v", diags)
	}
}

// partialDef defines r2 on only one branch, so "ret r2" may read an
// undefined register: structurally valid, a def-use error.
const partialDef = `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadI 7 => r2
    jump -> b2
b2:
    ret r2
}
`

// TestCheckedRunReportsDefUseOnce: a def-use error the input already
// carries is reported once, tagged with the first pass, and not again
// after each later pass that leaves the function unchanged.
func TestCheckedRunReportsDefUseOnce(t *testing.T) {
	prog, err := ir.ParseProgramString(partialDef)
	if err != nil {
		t.Fatal(err)
	}
	passes, err := core.Passes(core.PassNames(core.LevelBaseline)...)
	if err != nil {
		t.Fatal(err)
	}
	_, diags, err := core.CheckedRun(prog, passes, core.OptimizeOptions{}, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var defuse []check.Diagnostic
	for _, d := range check.Errors(diags) {
		if d.Analyzer == "defuse" {
			defuse = append(defuse, d)
		}
	}
	if len(defuse) != 1 || defuse[0].Pass != "sccp" {
		t.Fatalf("want one defuse error tagged sccp, got %v", defuse)
	}
}

// TestOptimizeHonorsCheckEnv: with EPRE_CHECK=1, Optimize runs the
// checked pipeline — and still succeeds on correct code.
func TestOptimizeHonorsCheckEnv(t *testing.T) {
	t.Setenv(core.CheckEnv, "1")
	if !core.CheckEnabled() {
		t.Fatal("CheckEnabled should see the environment variable")
	}
	prog, err := minift.Compile(`
func main(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + i * i
    }
    return s
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range core.Levels {
		if _, err := core.Optimize(prog, level); err != nil {
			t.Errorf("checked Optimize at %s: %v", level, err)
		}
	}
}

// TestCheckedOptimizeStrictErrorMessage: the EPRE_CHECK failure path
// renders the diagnostics into the error.
func TestCheckedOptimizeStrictErrorMessage(t *testing.T) {
	passes, err := core.Passes(core.PassNames(core.LevelBaseline)...)
	if err != nil {
		t.Fatal(err)
	}
	_, diags, err := core.CheckedRun(&ir.Program{}, passes, core.OptimizeOptions{}, core.CheckConfig{Validate: true})
	if err != nil || len(diags) != 0 {
		t.Fatalf("empty program should check cleanly: %v %v", diags, err)
	}
	if !strings.Contains(check.Diagnostic{Analyzer: "validate", Severity: check.SevError,
		Func: "f", Instr: -1, Pass: "pre", Msg: "boom"}.String(), "after pass pre") {
		t.Error("diagnostic rendering should include the pass name")
	}
}
