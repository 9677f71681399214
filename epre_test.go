package epre_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	epre "repro"
	"repro/internal/core"
	"repro/internal/minift"
	"repro/internal/suite"
)

const quickSrc = `
func foo(y: int, z: int): int {
    var s: int = 0
    var x: int = y + z
    for i = x to 100 {
        s = 1 + s + x
    }
    return s
}
`

func TestCompileAndRun(t *testing.T) {
	p, err := epre.Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run("foo", epre.Int(1), epre.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I != 392 {
		t.Errorf("foo(1,2) = %s, want 392", res.Value)
	}
	if res.DynamicOps <= 0 {
		t.Error("no dynamic ops counted")
	}
	if fns := p.Functions(); len(fns) != 1 || fns[0] != "foo" {
		t.Errorf("Functions() = %v", fns)
	}
}

func TestOptimizeIsPureAndImproves(t *testing.T) {
	p := epre.MustCompile(quickSrc)
	before := p.ILOC()
	opt, err := p.Optimize(epre.LevelReassoc)
	if err != nil {
		t.Fatal(err)
	}
	if p.ILOC() != before {
		t.Error("Optimize mutated the receiver")
	}
	r0, err := p.Run("foo", epre.Int(1), epre.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := opt.Run("foo", epre.Int(1), epre.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if r0.Value.I != r1.Value.I {
		t.Errorf("optimization changed the result: %s vs %s", r0.Value, r1.Value)
	}
	if r1.DynamicOps >= r0.DynamicOps {
		t.Errorf("no improvement: %d vs %d", r1.DynamicOps, r0.DynamicOps)
	}
}

func TestILOCRoundTrip(t *testing.T) {
	p := epre.MustCompile(quickSrc)
	text := p.ILOC()
	q, err := epre.ParseILOC(text)
	if err != nil {
		t.Fatal(err)
	}
	if q.ILOC() != text {
		t.Error("ILOC round trip not stable")
	}
	r0, _ := p.Run("foo", epre.Int(3), epre.Int(4))
	r1, _ := q.Run("foo", epre.Int(3), epre.Int(4))
	if r0.Value.I != r1.Value.I {
		t.Error("round trip changed semantics")
	}
}

func TestParseILOCRejectsGarbage(t *testing.T) {
	if _, err := epre.ParseILOC("this is not iloc"); err == nil {
		t.Error("expected parse error")
	}
	// Structurally broken (cbr with one target) must fail verification.
	const bad = `
program globalsize=0
func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1
b1:
    ret r1
}
`
	if _, err := epre.ParseILOC(bad); err == nil {
		t.Error("expected verify error for single-target cbr")
	}
}

func TestOptimizePasses(t *testing.T) {
	p := epre.MustCompile(quickSrc)
	q, err := p.OptimizePasses("reassoc", "gvn", "normalize", "pre", "sccp", "dce", "coalesce", "emptyblocks")
	if err != nil {
		t.Fatal(err)
	}
	r, err := q.Run("foo", epre.Int(1), epre.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.I != 392 {
		t.Errorf("got %s, want 392", r.Value)
	}
	if _, err := p.OptimizePasses("no-such-pass"); err == nil {
		t.Error("expected unknown-pass error")
	}
}

// TestOptimizePassesHonorsCheckEnv: with EPRE_CHECK=1 an explicit pass
// list is checked like a level, so a def-use error in the program fails
// both.
func TestOptimizePassesHonorsCheckEnv(t *testing.T) {
	t.Setenv(core.CheckEnv, "1")
	p, err := epre.ParseILOC(`
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
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Optimize(epre.LevelBaseline); err == nil || !strings.Contains(err.Error(), "defuse") {
		t.Errorf("Optimize: want a defuse error, got %v", err)
	}
	if _, err := p.OptimizePasses(core.PassNames(core.LevelBaseline)...); err == nil || !strings.Contains(err.Error(), "defuse") {
		t.Errorf("OptimizePasses: want a defuse error, got %v", err)
	}
}

func TestParseLevel(t *testing.T) {
	for _, s := range []string{"baseline", "partial", "reassoc", "dist", "none"} {
		if _, err := epre.ParseLevel(s); err != nil {
			t.Errorf("ParseLevel(%q): %v", s, err)
		}
	}
	if _, err := epre.ParseLevel("bogus"); err == nil {
		t.Error("expected error")
	}
}

func TestForwardPropagationExpansion(t *testing.T) {
	p := epre.MustCompile(quickSrc)
	before, after, err := p.ForwardPropagationExpansion()
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 || after <= 0 {
		t.Fatalf("bad counts %d, %d", before, after)
	}
	ratio := float64(after) / float64(before)
	if ratio < 0.8 || ratio > 3.0 {
		t.Errorf("expansion %.3f outside the plausible band", ratio)
	}
}

// TestForwardPropagationExpansionIsTable2: the public method and the
// Table 2 harness read the same reassoc.Stats from the pass driver, so
// they agree on every suite routine.
func TestForwardPropagationExpansionIsTable2(t *testing.T) {
	rows, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(suite.All()) {
		t.Fatalf("Table 2 has %d rows, want %d", len(rows), len(suite.All()))
	}
	for _, row := range rows {
		r, _ := suite.ByName(row.Name)
		p, err := epre.CompileAny(r.Source)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		before, after, err := p.ForwardPropagationExpansion()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if before != row.Before || after != row.After {
			t.Errorf("%s: ForwardPropagationExpansion = %d, %d; Table 2 row = %d, %d",
				r.Name, before, after, row.Before, row.After)
		}
	}
}

func TestDump(t *testing.T) {
	p := epre.MustCompile(quickSrc)
	text, err := p.Dump("foo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "func foo(") {
		t.Errorf("Dump output:\n%s", text)
	}
	if _, err := p.Dump("nope"); err == nil {
		t.Error("expected error for unknown function")
	}
}

func TestPrintOutput(t *testing.T) {
	const src = `
func main(n: int) {
    for i = 1 to n {
        print i * i
    }
}
`
	p := epre.MustCompile(src)
	res, err := p.Run("main", epre.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 4, 9, 16}
	if len(res.Output) != len(want) {
		t.Fatalf("output %v", res.Output)
	}
	for i, v := range want {
		if res.Output[i].I != v {
			t.Errorf("output[%d] = %s, want %d", i, res.Output[i], v)
		}
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := epre.Compile("func f( {"); err == nil {
		t.Error("expected syntax error")
	}
	if _, err := epre.Compile("func f() { x = 1 }"); err == nil {
		t.Error("expected semantic error")
	}
}

// TestOptimizeCancelled: a dead context stops the optimizer behind
// Program.Optimize with an error wrapping the context error.
func TestOptimizeCancelled(t *testing.T) {
	prog, err := minift.Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.OptimizeWith(prog, core.LevelDist, core.OptimizeOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}
