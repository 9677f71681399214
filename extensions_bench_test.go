package epre

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minift"
	"repro/internal/suite"
)

// runPipeline applies a pass list to a copy of prog through the
// pipeline driver.
func runPipeline(tb testing.TB, prog *ir.Program, names []string) *ir.Program {
	tb.Helper()
	passes, err := core.Passes(names...)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := core.RunPasses(prog, passes, core.OptimizeOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// Benchmarks for the paper's stated future work (§4.1/§5.2): the two
// passes missing from the original optimizer, implemented here as
// extensions.
//
//	BenchmarkExtensionStrength — "We expect that strength reduction
//	    will improve the code beyond the results shown in this paper."
//	BenchmarkExtensionLVN      — "hash-based value numbering should
//	    also benefit from reassociation."

// distPipeline is the paper's best level; the extension variants splice
// the new passes into it.
var distPipeline = []string{"reassoc-dist", "gvn", "normalize", "pre", "sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"}

func measurePipeline(b *testing.B, src, driver string, args []interp.Value, passes []string) (int64, int64) {
	b.Helper()
	prog, err := minift.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	m := interp.NewMachine(runPipeline(b, prog, passes))
	m.EnableOpCounts()
	if _, err := m.Call(driver, args...); err != nil {
		b.Fatal(err)
	}
	return m.Steps, m.OpCounts[ir.OpMul] + m.OpCounts[ir.OpFMul]
}

// BenchmarkExtensionStrength measures the distribution level with and
// without loop strength reduction appended.  Strength reduction turns
// the per-iteration ×elemsize address multiplications that distribution
// exposes into additive recurrences.
func BenchmarkExtensionStrength(b *testing.B) {
	variants := []struct {
		name   string
		passes []string
	}{
		{"dist", distPipeline},
		{"dist+strength", append(append([]string{}, distPipeline...),
			"strength", "sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce")},
	}
	for _, rn := range []string{"sgemv", "saxpy", "iniset", "colbur"} {
		r, ok := suite.ByName(rn)
		if !ok {
			b.Fatalf("no routine %q", rn)
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", r.Name, v.name), func(b *testing.B) {
				var ops, muls int64
				for i := 0; i < b.N; i++ {
					ops, muls = measurePipeline(b, r.Source, r.Driver, r.Args, v.passes)
				}
				b.ReportMetric(float64(ops), "dynops")
				b.ReportMetric(float64(muls), "dynmuls")
			})
		}
	}
}

// BenchmarkExtensionLVN measures hash-based local value numbering
// after reassociation (the paper's conjecture) versus without it, on
// straight-line-heavy code.
func BenchmarkExtensionLVN(b *testing.B) {
	variants := []struct {
		name   string
		passes []string
	}{
		{"dist", distPipeline},
		{"dist+lvn", append(append([]string{}, distPipeline...),
			"lvn", "dce", "coalesce", "emptyblocks", "dce")},
		{"lvn-only", []string{"lvn", "sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"}},
	}
	for _, rn := range []string{"fpppp", "rkf45", "deseco"} {
		r, ok := suite.ByName(rn)
		if !ok {
			b.Fatalf("no routine %q", rn)
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", r.Name, v.name), func(b *testing.B) {
				var ops int64
				for i := 0; i < b.N; i++ {
					ops, _ = measurePipeline(b, r.Source, r.Driver, r.Args, v.passes)
				}
				b.ReportMetric(float64(ops), "dynops")
			})
		}
	}
}

// TestExtensionsPreserveSemantics runs the extension pipelines over the
// whole suite, validating against the references.
func TestExtensionsPreserveSemantics(t *testing.T) {
	pipelines := [][]string{
		append(append([]string{}, distPipeline...), "strength", "sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"),
		append(append([]string{}, distPipeline...), "lvn", "dce", "coalesce", "emptyblocks", "dce"),
		{"lvn", "strength", "sccp", "dce", "coalesce", "emptyblocks"},
	}
	for _, r := range suite.All() {
		for pi, passes := range pipelines {
			prog, err := r.Compile()
			if err != nil {
				t.Fatal(err)
			}
			m := interp.NewMachine(runPipeline(t, prog, passes))
			v, err := m.Call(r.Driver, r.Args...)
			if err != nil {
				t.Errorf("%s pipeline %d: %v", r.Name, pi, err)
				continue
			}
			if err := r.Check(v); err != nil {
				t.Errorf("%s pipeline %d: %v", r.Name, pi, err)
			}
		}
	}
}

// TestStrengthReductionHelps asserts the paper's expectation on array
// kernels.  The honest metric is dynamic *multiplications*: strength
// reduction trades a multiply for an add each iteration, which total
// operation counts cannot see (the paper's §4.1 makes the same point —
// "strength reduction should reduce non-essential overhead").
func TestStrengthReductionHelps(t *testing.T) {
	measure := func(r suite.Routine, passes []string) (int64, int64) {
		prog, err := r.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := interp.NewMachine(runPipeline(t, prog, passes))
		m.EnableOpCounts()
		v, err := m.Call(r.Driver, r.Args...)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Check(v); err != nil {
			t.Fatal(err)
		}
		return m.Steps, m.OpCounts[ir.OpMul]
	}
	srPipeline := append(append([]string{}, distPipeline...),
		"strength", "sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce")
	for _, rn := range []string{"saxpy", "sgemv", "iniset"} {
		r, ok := suite.ByName(rn)
		if !ok {
			t.Fatalf("no %s", rn)
		}
		distOps, distMuls := measure(r, distPipeline)
		srOps, srMuls := measure(r, srPipeline)
		t.Logf("%s: dist ops=%d muls=%d | +strength ops=%d muls=%d",
			rn, distOps, distMuls, srOps, srMuls)
		if srMuls >= distMuls {
			t.Errorf("%s: strength reduction did not cut multiplications: %d vs %d",
				rn, srMuls, distMuls)
		}
		if srOps > distOps+distOps/20 {
			t.Errorf("%s: strength reduction blew up total ops: %d vs %d", rn, srOps, distOps)
		}
	}
}
