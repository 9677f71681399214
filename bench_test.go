package epre

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/minift"
	"repro/internal/reassoc"
	"repro/internal/regalloc"
	"repro/internal/suite"
)

// The benchmarks regenerate every table and figure of the paper's
// evaluation:
//
//	BenchmarkTable1            — Table 1: dynamic op counts per routine
//	                             per optimization level (reported as the
//	                             "dynops" metric)
//	BenchmarkTable2ForwardProp — Table 2: static code expansion from
//	                             forward propagation ("expansion" metric)
//	BenchmarkRunningExample    — Figures 2–10: the foo pipeline
//	BenchmarkCSEHierarchy      — §5.3: dominator CSE vs AVAIL CSE vs PRE
//	BenchmarkDistributionLoss  — §4.2: the 4×(ri−1)/8×(ri−1) case
//	BenchmarkPeepholeOrdering  — §5.2: mul→shift before vs after
//	                             reassociation
//	BenchmarkAblation*         — design-choice ablations from DESIGN.md
//	BenchmarkBaselineTail      — per-pass time and bytes of the §4.1
//	                             baseline tail
//	BenchmarkPRE               — time and bytes of each PRE backend at
//	                             the distribution level's PRE slot
//	BenchmarkSuiteSweep        — one sweep of the whole suite under
//	                             twelve level × backend configurations
//
// Wall-clock numbers measure the optimizer itself; the paper's actual
// metric is the reported dynops/expansion value.

// BenchmarkTable1 regenerates Table 1: for every suite routine and
// level, optimize and interpret, reporting dynamic operations.
func BenchmarkTable1(b *testing.B) {
	for _, r := range suite.All() {
		for _, level := range core.Levels {
			b.Run(fmt.Sprintf("%s/%s", r.Name, level), func(b *testing.B) {
				var ops int64
				for i := 0; i < b.N; i++ {
					n, err := suite.RunRoutine(r, level)
					if err != nil {
						b.Fatal(err)
					}
					ops = n
				}
				b.ReportMetric(float64(ops), "dynops")
			})
		}
	}
}

// BenchmarkTable2ForwardProp regenerates Table 2: static instruction
// counts before and after forward propagation.
func BenchmarkTable2ForwardProp(b *testing.B) {
	for _, r := range suite.All() {
		b.Run(r.Name, func(b *testing.B) {
			var expansion float64
			for i := 0; i < b.N; i++ {
				prog, err := r.Compile()
				if err != nil {
					b.Fatal(err)
				}
				before, after := 0, 0
				for _, f := range prog.Funcs {
					st := reassoc.Run(f, reassoc.DefaultOptions(), analysis.NewCache(f))
					before += st.BeforeProp
					after += st.AfterProp
				}
				expansion = float64(after) / float64(before)
			}
			b.ReportMetric(expansion, "expansion")
		})
	}
}

const runningExampleSrc = `
func foo(y: int, z: int): int {
    var s: int = 0
    var x: int = y + z
    for i = x to 100 {
        s = 1 + s + x
    }
    return s
}
`

// BenchmarkRunningExample regenerates the Figures 2–10 walkthrough:
// the full distribution-level pipeline over the paper's foo, reporting
// the dynamic count for foo(1,2) at each level.
func BenchmarkRunningExample(b *testing.B) {
	for _, level := range core.Levels {
		b.Run(string(level), func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				prog, err := minift.Compile(runningExampleSrc)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := core.Optimize(prog, level)
				if err != nil {
					b.Fatal(err)
				}
				m := interp.NewMachine(opt)
				if _, err := m.Call("foo", interp.IntVal(1), interp.IntVal(2)); err != nil {
					b.Fatal(err)
				}
				ops = m.Steps
			}
			b.ReportMetric(float64(ops), "dynops")
		})
	}
}

// hierarchySrc is the §5.3 containment program (see examples/pipelines).
const hierarchySrc = `
program globalsize=0

func diamond(r1, r2) {
b0:
    enter(r1, r2)
    loadI 10 => r3
    cmpLT r1, r3 => r4
    cbr r4 -> b1, b2
b1:
    add r1, r2 => r10
    mul r10, r10 => r5
    jump -> b3
b2:
    add r1, r2 => r10
    sub r1, r2 => r8
    add r10, r8 => r5
    jump -> b3
b3:
    add r1, r2 => r10
    add r5, r10 => r7
    sub r1, r2 => r8
    add r7, r8 => r9
    ret r9
}
`

// BenchmarkCSEHierarchy regenerates §5.3: the three redundancy
// eliminators on the diamond program, reporting the dynamic count of
// the b2 path (where PRE's partial-redundancy conversion pays off).
func BenchmarkCSEHierarchy(b *testing.B) {
	schemes := []struct {
		name   string
		passes []string
	}{
		{"dominator", []string{"cse-dom"}},
		{"avail", []string{"cse-avail"}},
		{"pre", []string{"normalize", "pre", "dce", "coalesce", "emptyblocks"}},
	}
	for _, s := range schemes {
		b.Run(s.name, func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				prog, err := ParseILOC(hierarchySrc)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := prog.OptimizePasses(s.passes...)
				if err != nil {
					b.Fatal(err)
				}
				res, err := opt.Run("diamond", Int(100), Int(2)) // b2 path
				if err != nil {
					b.Fatal(err)
				}
				ops = res.DynamicOps
			}
			b.ReportMetric(float64(ops), "dynops")
		})
	}
}

// distLossSrc is §4.2's distribution example: parallel accesses to a
// single-precision and a double-precision array share the subterm
// (i−1); distributing 4× and 8× over it loses the common
// subexpression.
const distLossSrc = `
func kernel(n: int, s: [*]real4, d: [*]real) {
    for i = 1 to n {
        d[i] = d[i] + s[i]
    }
}

func driver(n: int): real {
    var s: [64]real4
    var d: [64]real
    for i = 1 to n {
        s[i] = real(i)
        d[i] = real(2 * i)
    }
    kernel(n, s, d)
    var t: real = 0.0
    for i = 1 to n {
        t = t + d[i]
    }
    return t
}
`

// BenchmarkDistributionLoss regenerates the §4.2 distribution case:
// reassociation vs distribution on the two-element-size kernel.  The
// paper notes the distributed version "is slightly worse than the
// original code since the original allowed commoning of the
// subexpression ri − 1".
func BenchmarkDistributionLoss(b *testing.B) {
	for _, level := range []core.Level{core.LevelReassoc, core.LevelDist} {
		b.Run(string(level), func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				prog, err := Compile(distLossSrc)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := prog.Optimize(level)
				if err != nil {
					b.Fatal(err)
				}
				res, err := opt.Run("driver", Int(48))
				if err != nil {
					b.Fatal(err)
				}
				ops = res.DynamicOps
			}
			b.ReportMetric(float64(ops), "dynops")
		})
	}
}

// shiftSrc is §5.2's interaction case, shaped as ((x×z)×2)×y with x
// and y loop-invariant and z varying: converting ×2 into a shift
// before reassociation freezes the association as shl(x×z,1)×y, so
// the invariant product 2·x·y can no longer be grouped and hoisted —
// "if ((x×y)×2)×z is prematurely converted into ((x×y)≪1)×z, we lose
// the opportunity to group z with either x or y".
const shiftSrc = `
func driver(x: int, y: int, n: int): int {
    var s: int = 0
    for z = 1 to n {
        s = s + x * z * 2 * y
    }
    return s
}
`

// BenchmarkPeepholeOrdering regenerates §5.2: running the
// shift-converting peephole before reassociation versus only after.
// "Since shifts are not associative, this optimization should not be
// performed until after global reassociation."
func BenchmarkPeepholeOrdering(b *testing.B) {
	orders := []struct {
		name   string
		passes []string
	}{
		{"shift-after-reassoc", []string{"reassoc", "gvn", "normalize", "pre", "sccp", "peephole-shift", "dce", "coalesce", "emptyblocks", "dce"}},
		{"shift-before-reassoc", []string{"peephole-shift", "reassoc", "gvn", "normalize", "pre", "sccp", "peephole-shift", "dce", "coalesce", "emptyblocks", "dce"}},
	}
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				prog, err := Compile(shiftSrc)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := prog.OptimizePasses(o.passes...)
				if err != nil {
					b.Fatal(err)
				}
				res, err := opt.Run("driver", Int(3), Int(7), Int(50))
				if err != nil {
					b.Fatal(err)
				}
				ops = res.DynamicOps
			}
			b.ReportMetric(float64(ops), "dynops")
		})
	}
}

// BenchmarkAblationGVN measures the reassociation level with and
// without global value numbering before PRE — the naming half of the
// paper's contribution (DESIGN.md ablation).
func BenchmarkAblationGVN(b *testing.B) {
	pipelines := []struct {
		name   string
		passes []string
	}{
		{"with-gvn", []string{"reassoc", "gvn", "normalize", "pre", "sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"}},
		{"without-gvn", []string{"reassoc", "normalize", "pre", "sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"}},
	}
	routines := []string{"sgemv", "deseco", "tomcatv"}
	for _, name := range routines {
		r, ok := suite.ByName(name)
		if !ok {
			b.Fatalf("no suite routine %q", name)
		}
		for _, p := range pipelines {
			b.Run(r.Name+"/"+p.name, func(b *testing.B) {
				var ops int64
				for i := 0; i < b.N; i++ {
					prog, err := Compile(r.Source)
					if err != nil {
						b.Fatal(err)
					}
					opt, err := prog.OptimizePasses(p.passes...)
					if err != nil {
						b.Fatal(err)
					}
					res, err := opt.Run(r.Driver, r.Args...)
					if err != nil {
						b.Fatal(err)
					}
					ops = res.DynamicOps
				}
				b.ReportMetric(float64(ops), "dynops")
			})
		}
	}
}

// BenchmarkAblationDupLimit measures the multi-use duplication bound
// of forward propagation (Options.MaxDupSize): unbounded duplication
// explodes repeated-squaring code (see the x21y21 routine).
func BenchmarkAblationDupLimit(b *testing.B) {
	r, ok := suite.ByName("x21y21")
	if !ok {
		b.Fatal("no x21y21 routine")
	}
	limits := []struct {
		name string
		max  int
	}{
		{"default", 0},
		{"unbounded", 1 << 20},
	}
	for _, lim := range limits {
		b.Run(lim.name, func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				prog, err := r.Compile()
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range prog.Funcs {
					reassoc.Run(f, reassoc.Options{AllowFloat: true, MaxDupSize: lim.max}, analysis.NewCache(f))
				}
				opt, err := core.Optimize(prog, core.LevelPartial) // gvn+pre+baseline tail
				if err != nil {
					b.Fatal(err)
				}
				m := interp.NewMachine(opt)
				v, err := m.Call(r.Driver, r.Args...)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Check(v); err != nil {
					b.Fatal(err)
				}
				ops = m.Steps
			}
			b.ReportMetric(float64(ops), "dynops")
		})
	}
}

// BenchmarkOptimizerSpeed measures the optimizer's own throughput (the
// engineering cost of the transformations), independent of the
// dynamic-count metric.
func BenchmarkOptimizerSpeed(b *testing.B) {
	r, ok := suite.ByName("tomcatv")
	if !ok {
		b.Fatal("no tomcatv routine")
	}
	prog, err := r.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range core.Levels {
		b.Run(string(level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(prog, level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineTail measures the baseline tail's passes (§4.1) one
// at a time: every suite routine's functions are carried through the
// distribution pipeline, and each of sccp, peephole, dce and coalesce
// runs, with its own fresh analysis cache, on the functions exactly as
// the pipeline hands them to it.  One op is one sweep of the suite;
// B/op is the bytes a pass allocates per sweep.
func BenchmarkBaselineTail(b *testing.B) {
	var funcs []*ir.Func
	for _, r := range suite.All() {
		prog, err := r.Compile()
		if err != nil {
			b.Fatal(err)
		}
		funcs = append(funcs, prog.Funcs...)
	}
	ctx := context.Background()
	measured := []string{"sccp", "peephole", "dce", "coalesce"}
	for _, name := range core.PassNames(core.LevelDist) {
		p, err := core.PassByName(name)
		if err != nil {
			b.Fatal(err)
		}
		if i := slices.Index(measured, name); i >= 0 {
			measured[i] = "" // the tail's second dce is not measured again
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				work := make([]*ir.Func, len(funcs))
				caches := make([]*analysis.Cache, len(funcs))
				for range b.N {
					b.StopTimer()
					for j, f := range funcs {
						work[j] = f.Clone()
						caches[j] = analysis.NewCache(work[j])
					}
					b.StartTimer()
					for j, f := range work {
						p.Run(&core.PassContext{Ctx: ctx, Func: f, Analyses: caches[j]})
					}
				}
			})
		}
		for _, f := range funcs {
			p.Run(&core.PassContext{Ctx: ctx, Func: f, Analyses: analysis.NewCache(f)})
		}
	}
}

// BenchmarkRegisterPressure measures, at a fixed register file size,
// how many values each optimization level forces the Chaitin–Briggs
// allocator to spill and what the spill code costs dynamically.
// Forward propagation and PRE's hoisted temporaries lengthen live
// ranges (the flip side of §4.3's space discussion), so the levels
// differ in pressure as well as in operation counts.
func BenchmarkRegisterPressure(b *testing.B) {
	r, ok := suite.ByName("tomcatv")
	if !ok {
		b.Fatal("no tomcatv")
	}
	const k = 12
	for _, level := range core.Levels {
		b.Run(string(level), func(b *testing.B) {
			var spills int
			var ops int64
			for i := 0; i < b.N; i++ {
				prog, err := r.Compile()
				if err != nil {
					b.Fatal(err)
				}
				opt, err := core.Optimize(prog, level)
				if err != nil {
					b.Fatal(err)
				}
				res, err := regalloc.Run(opt, k)
				if err != nil {
					b.Fatal(err)
				}
				m := interp.NewMachine(opt)
				v, err := m.Call(r.Driver, r.Args...)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Check(v); err != nil {
					b.Fatal(err)
				}
				spills = res.Spilled
				ops = m.Steps
			}
			b.ReportMetric(float64(spills), "spills")
			b.ReportMetric(float64(ops), "dynops")
		})
	}
}

// BenchmarkPRE measures each PRE backend's time and bytes over every
// suite function as the distribution pipeline hands it to the PRE slot
// (reassociation with distribution, GVN and normalization already run).
func BenchmarkPRE(b *testing.B) {
	var funcs []*ir.Func
	for _, r := range suite.All() {
		prog, err := r.Compile()
		if err != nil {
			b.Fatal(err)
		}
		funcs = append(funcs, prog.Funcs...)
	}
	ctx := context.Background()
	for _, name := range core.PassNames(core.LevelDist) {
		if name == core.PREDrechsler.PassName() {
			break
		}
		p, err := core.PassByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range funcs {
			p.Run(&core.PassContext{Ctx: ctx, Func: f, Analyses: analysis.NewCache(f)})
		}
	}
	for _, backend := range core.PREBackends {
		p, err := core.PassByName(backend.PassName())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(backend), func(b *testing.B) {
			b.ReportAllocs()
			work := make([]*ir.Func, len(funcs))
			caches := make([]*analysis.Cache, len(funcs))
			for range b.N {
				b.StopTimer()
				for j, f := range funcs {
					work[j] = f.Clone()
					caches[j] = analysis.NewCache(work[j])
				}
				b.StartTimer()
				for j, f := range work {
					p.Run(&core.PassContext{Ctx: ctx, Func: f, Analyses: caches[j]})
				}
			}
		})
	}
}

// BenchmarkSuiteSweep is one sweep of the suite as a build job runs
// it, in process: every routine compiled from source, optimized with
// core.OptimizeWith and printed, under twelve configurations —
// baseline; partial, reassociation and distribution under every PRE
// backend with AWZ value numbering; and the two reassociating levels
// with precise value numbering.  One op is one sweep.
func BenchmarkSuiteSweep(b *testing.B) {
	type config struct {
		level core.Level
		opts  core.OptimizeOptions
	}
	configs := []config{{core.LevelBaseline, core.OptimizeOptions{}}}
	for _, l := range []core.Level{core.LevelPartial, core.LevelReassoc, core.LevelDist} {
		for _, p := range core.PREBackends {
			configs = append(configs, config{l, core.OptimizeOptions{GVN: core.GVNAWZ, PRE: p}})
		}
	}
	for _, l := range []core.Level{core.LevelReassoc, core.LevelDist} {
		configs = append(configs, config{l, core.OptimizeOptions{GVN: core.GVNPrecise, PRE: core.PREDrechsler}})
	}
	routines := suite.All()
	b.ReportAllocs()
	for range b.N {
		for _, r := range routines {
			for _, c := range configs {
				prog, _, err := lang.Compile(r.Source, "")
				if err != nil {
					b.Fatal(err)
				}
				out, err := core.OptimizeWith(prog, c.level, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				_ = out.String()
			}
		}
	}
}
