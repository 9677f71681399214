// Package difftest is the differential-testing harness pairing the
// random program generator (internal/progen) with the optimizer and
// the reference interpreter.
//
// For each seed it generates one program, optimizes it at each level
// and judges the result with translation validation's oracle
// (check.Observe and check.Disagree) on the checker's standard input
// tuples: the return value, the printed output stream, and (for levels
// that claim bit-exact float behavior) the final memory image must
// agree with the unoptimized program's.  Failures are classified —
// miscompile, verifier rejection, panic, timeout — optionally shrunk
// to a minimal reproducer by delta debugging (see shrink.go), and
// persisted as self-describing .iloc artifacts.
package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/progen"
)

// Kind classifies a failure.
type Kind string

// The failure classes.
const (
	// KindMiscompile: optimized code terminated but disagreed with the
	// reference (wrong value, wrong output, wrong memory), or trapped
	// or ran away where the reference terminated cleanly.
	KindMiscompile Kind = "miscompile"
	// KindVerifierReject: a pass produced structurally invalid IR (the
	// pipeline's post-pass ir.Verify or the final whole-program verify
	// failed).
	KindVerifierReject Kind = "verifier-reject"
	// KindPanic: the optimizer panicked.
	KindPanic Kind = "panic"
	// KindTimeout: the run's context expired mid-test; the program is
	// unjudged, not necessarily wrong.
	KindTimeout Kind = "timeout"
)

// OptimizeFunc is the optimizer under test.  The default is the real
// pipeline (core.OptimizeWith); tests substitute deliberately broken
// pipelines to prove the oracle and reducer catch them.
type OptimizeFunc func(ctx context.Context, p *ir.Program, level core.Level) (*ir.Program, error)

// Options configure one fuzzing run.
type Options struct {
	// Ctx bounds the whole run; expiry classifies in-flight programs
	// as KindTimeout and stops the run.
	Ctx context.Context
	// Seed is the base seed; program i uses seed Seed+i.
	Seed uint64
	// N is the number of programs to generate and test.
	N int
	// Levels to test; nil means all four Table 1 levels.
	Levels []core.Level
	// Workers sets test-level parallelism (programs are independent).
	// Results are aggregated in seed order, so the report is identical
	// for any worker count.  <=1 means serial.
	Workers int
	// Shrink enables delta-debugging reduction of failing programs.
	Shrink bool
	// ArtifactDir, when non-empty, receives one .iloc reproducer per
	// failure plus a human-readable metadata header.
	ArtifactDir string
	// Config overrides the per-seed generator configuration; nil means
	// progen.ForSeed, which sweeps the shape space.
	Config *progen.Config
	// CallHeavy forces the generator's call-heavy shape on top of the
	// per-seed sweep (or the explicit Config): dense call sites and
	// depth-two call chains, the silhouette procedural front ends
	// produce.
	CallHeavy bool
	// Optimize overrides the optimizer under test (nil = real pipeline).
	Optimize OptimizeFunc
	// PerPass, for miscompiles, re-runs the level pass by pass under
	// translation validation to name the guilty pass in the detail.
	PerPass bool
	// GVNDiff enables cross-backend differential mode: every level
	// whose pass sequence has a value-numbering slot is optimized twice
	// — once per GVN backend — and both results are validated against
	// the same reference behavior, so the two backends act as free
	// oracles for each other.  Incompatible with a custom Optimize
	// (which has no backend dimension).
	GVNDiff bool
	// PREDiff is GVNDiff for the redundancy-elimination slot: every
	// level with a PRE slot is optimized once per PRE backend
	// (drechsler, lcm, lospre), all validated against the same
	// reference behavior.  Combined with GVNDiff the harness tests the
	// full backend product.  Incompatible with a custom Optimize.
	PREDiff bool
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) levels() []core.Level {
	if len(o.Levels) > 0 {
		return o.Levels
	}
	return core.Levels
}

// variant is one pipeline configuration under test: a point in the
// (GVN backend × PRE backend) product.
type variant struct {
	gvn core.GVNBackend
	pre core.PREBackend
}

func (o Options) optimize() OptimizeFunc {
	return o.optimizeFor(variant{core.GVNAWZ, core.PREDrechsler})
}

// optimizeFor is the optimizer under test with explicit backends; a
// custom Optimize override has no backend dimension and wins outright.
func (o Options) optimizeFor(v variant) OptimizeFunc {
	if o.Optimize != nil {
		return o.Optimize
	}
	return func(ctx context.Context, p *ir.Program, level core.Level) (*ir.Program, error) {
		return core.OptimizeWith(p, level, core.OptimizeOptions{Ctx: ctx, GVN: v.gvn, PRE: v.pre})
	}
}

// passSeqDiffers reports whether two pipeline configurations produce
// different pass sequences at a level; identical sequences make the
// variants byte-identical, so testing both would be pure waste.
func passSeqDiffers(level core.Level, a, b variant) bool {
	x := core.PassNamesWith(level, a.gvn, a.pre)
	y := core.PassNamesWith(level, b.gvn, b.pre)
	for i := range x {
		if x[i] != y[i] {
			return true
		}
	}
	return false
}

// variants lists the pipeline configurations one level is tested with:
// just the default, plus every GVN backend when GVNDiff is set and the
// level has a value-numbering slot, crossed with every PRE backend when
// PREDiff is set and the level has a redundancy-elimination slot.
func (o Options) variants(level core.Level) []variant {
	def := variant{core.GVNAWZ, core.PREDrechsler}
	gvns := []core.GVNBackend{core.GVNAWZ}
	if o.GVNDiff && passSeqDiffers(level, def, variant{core.GVNPrecise, core.PREDrechsler}) {
		gvns = core.GVNBackends
	}
	pres := []core.PREBackend{core.PREDrechsler}
	if o.PREDiff && passSeqDiffers(level, def, variant{core.GVNAWZ, core.PRELCM}) {
		pres = core.PREBackends
	}
	vs := make([]variant, 0, len(gvns)*len(pres))
	for _, g := range gvns {
		for _, p := range pres {
			vs = append(vs, variant{g, p})
		}
	}
	return vs
}

// Failure describes one failing (program, level) pair.
type Failure struct {
	Seed  uint64
	Level core.Level
	// GVN is the value-numbering backend the failing pipeline ran with
	// (set in GVNDiff mode; empty means the default backend).
	GVN core.GVNBackend
	// PRE is the redundancy-elimination backend the failing pipeline
	// ran with (set in PREDiff mode; empty means the default backend).
	PRE    core.PREBackend
	Kind   Kind
	Detail string
	// Program is the reproducer: the original generated program, or
	// the minimized one when shrinking succeeded.
	Program *ir.Program
	// OrigInstrs and MinInstrs are the static instruction counts
	// before and after reduction (equal when Shrunk is false).
	OrigInstrs int
	MinInstrs  int
	Shrunk     bool
	// Artifact is the path the reproducer was written to, if any.
	Artifact string
}

func (f *Failure) String() string {
	level := string(f.Level)
	if f.GVN != "" {
		level += "/gvn=" + string(f.GVN)
	}
	if f.PRE != "" {
		level += "/pre=" + string(f.PRE)
	}
	s := fmt.Sprintf("%s at %s (seed %d): %s", f.Kind, level, f.Seed, f.Detail)
	if f.Shrunk {
		s += fmt.Sprintf(" [shrunk %d -> %d instrs]", f.OrigInstrs, f.MinInstrs)
	}
	return s
}

// Report summarizes a run.
type Report struct {
	Programs int
	Failures []Failure
	ByKind   map[Kind]int
	Elapsed  time.Duration
}

// Run executes the differential test over opt.N programs and returns
// the aggregated report.  The only error return is context expiry
// before any verdicts could be collected; individual program failures
// are data, not errors.
func Run(opt Options) (*Report, error) {
	ctx := opt.ctx()
	if (opt.GVNDiff || opt.PREDiff) && opt.Optimize != nil {
		return nil, fmt.Errorf("difftest: GVNDiff/PREDiff is incompatible with a custom Optimize (no backend dimension)")
	}
	start := time.Now()
	n := opt.N
	if n <= 0 {
		n = 1
	}
	workers := opt.Workers
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// Each index is tested independently; results land in a fixed slot
	// so aggregation order — and therefore the report — is identical
	// for any worker count.
	results := make([][]Failure, n)
	tested := make([]bool, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = testSeed(ctx, opt.Seed+uint64(i), opt)
				tested[i] = true
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	rep := &Report{ByKind: map[Kind]int{}, Elapsed: time.Since(start)}
	for idx, fs := range results {
		if !tested[idx] {
			continue
		}
		rep.Programs++
		for i := range fs {
			f := &fs[i]
			if opt.Shrink && f.Kind != KindTimeout {
				shrinkFailure(ctx, f, opt)
			}
			if opt.ArtifactDir != "" && f.Kind != KindTimeout {
				if path, err := writeArtifact(opt.ArtifactDir, f); err == nil {
					f.Artifact = path
				} else {
					f.Detail += fmt.Sprintf(" (artifact write failed: %v)", err)
				}
			}
			rep.Failures = append(rep.Failures, *f)
			rep.ByKind[f.Kind]++
		}
	}
	if rep.Programs == 0 {
		return rep, fmt.Errorf("difftest: run cancelled before any program was tested: %w", ctx.Err())
	}
	return rep, nil
}

// testSeed generates the program for one seed and tests every level,
// returning at most one failure per level.
func testSeed(ctx context.Context, seed uint64, opt Options) []Failure {
	cfg := progen.ForSeed(seed)
	if opt.Config != nil {
		cfg = *opt.Config
	}
	if opt.CallHeavy {
		cfg.CallHeavy = true
	}
	prog := progen.Generate(cfg, seed)

	var failures []Failure
	for _, level := range opt.levels() {
		for _, v := range opt.variants(level) {
			if ctx.Err() != nil {
				failures = append(failures, Failure{
					Seed: seed, Level: level, Kind: KindTimeout,
					Detail: ctx.Err().Error(), Program: prog,
					OrigInstrs: prog.InstrCount(), MinInstrs: prog.InstrCount(),
				})
				continue
			}
			if f := testLevel(ctx, prog, seed, level, v, opt); f != nil {
				failures = append(failures, *f)
			}
		}
	}
	return failures
}

// testLevel runs one optimization level (with one pipeline variant) of
// prog and judges it against the unoptimized prog's main on the
// checker's input tuples, returning a classified failure, or nil.
func testLevel(ctx context.Context, prog *ir.Program, seed uint64, level core.Level, v variant, opt Options) *Failure {
	var gvnTag core.GVNBackend
	var preTag core.PREBackend
	if opt.GVNDiff {
		gvnTag = v.gvn // record the pipeline variant on any failure
	}
	if opt.PREDiff {
		preTag = v.pre
	}
	fail := func(kind Kind, detail string, repro *ir.Program) *Failure {
		if repro == nil {
			repro = prog
		}
		n := prog.InstrCount()
		return &Failure{
			Seed: seed, Level: level, GVN: gvnTag, PRE: preTag, Kind: kind, Detail: detail,
			Program: repro, OrigInstrs: n, MinInstrs: n,
		}
	}

	optimized, panicMsg, err := safeOptimize(ctx, prog, level, opt.optimizeFor(v))
	switch {
	case panicMsg != "":
		return fail(KindPanic, panicMsg, nil)
	case err != nil:
		if ctx.Err() != nil {
			return fail(KindTimeout, err.Error(), nil)
		}
		return fail(KindVerifierReject, err.Error(), nil)
	}
	if verr := ir.VerifyProgram(optimized); verr != nil {
		return fail(KindVerifierReject, verr.Error(), nil)
	}

	tol := core.FloatTol(core.PassNamesWith(level, v.gvn, v.pre)...)
	for _, in := range check.ProgramInputs(prog, "main", 3) {
		ref, ok := check.Observe(ctx, prog, "main", in)
		if !ok {
			continue
		}
		if detail := check.Disagree(ctx, optimized, "main", ref, tol); detail != "" {
			if ctx.Err() != nil {
				return fail(KindTimeout, ctx.Err().Error(), nil)
			}
			if opt.PerPass {
				detail += blamePass(ctx, prog, level, v)
			}
			return fail(KindMiscompile, detail, nil)
		}
	}
	return nil
}

// safeOptimize runs the optimizer with panics converted into data.
func safeOptimize(ctx context.Context, p *ir.Program, level core.Level, optimize OptimizeFunc) (out *ir.Program, panicMsg string, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			panicMsg = fmt.Sprintf("optimizer panic: %v\n%s", r, buf)
		}
	}()
	out, err = optimize(ctx, p.Clone(), level)
	return out, "", err
}

// blamePass re-runs the level under per-pass translation validation
// and names the first pass with an error diagnostic.  Best effort: the
// real pipeline optimizes whole programs, so the blame run can only
// narrow, never widen, the already-established miscompile.
func blamePass(ctx context.Context, prog *ir.Program, level core.Level, v variant) string {
	passes, err := core.Passes(core.PassNamesWith(level, v.gvn, v.pre)...)
	if err != nil {
		return fmt.Sprintf(" [blame run failed: %v]", err)
	}
	_, diags, err := core.CheckedRun(prog, passes, core.OptimizeOptions{Ctx: ctx}, core.CheckConfig{Validate: true})
	for _, d := range check.Errors(diags) {
		if d.Pass != "" {
			return fmt.Sprintf(" [blamed pass: %s]", d.Pass)
		}
	}
	if err != nil {
		return fmt.Sprintf(" [blame run failed: %v]", err)
	}
	return " [per-pass validation did not isolate a pass]"
}

// shrinkFailure reduces f.Program with delta debugging and updates the
// failure in place when a smaller reproducer is found.  The shrinker
// keeps only the failure's kind, so the reduced program is judged
// again and the failure takes its detail: the symptom recorded is the
// one the reproducer shows.
func shrinkFailure(ctx context.Context, f *Failure, opt Options) {
	v := variant{f.GVN, f.PRE}
	reduced, ok := Shrink(ctx, f.Program, ShrinkOptions{
		Level:    f.Level,
		Kind:     f.Kind,
		Optimize: opt.optimizeFor(v),
	})
	if ok && reduced.InstrCount() < f.Program.InstrCount() {
		f.Program = reduced
		f.MinInstrs = reduced.InstrCount()
		f.Shrunk = true
		if g := testLevel(ctx, reduced, f.Seed, f.Level, v, opt); g != nil && g.Kind == f.Kind {
			f.Detail = g.Detail
		}
	}
}

// writeArtifact persists one failure as an .iloc file whose leading
// comment block carries the metadata; the file reparses cleanly, so a
// reproducer is a single `epre run` away.
func writeArtifact(dir string, f *Failure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-%s", f.Kind, f.Seed, f.Level)
	if f.GVN != "" {
		name += "-gvn-" + string(f.GVN)
	}
	if f.PRE != "" {
		name += "-pre-" + string(f.PRE)
	}
	name += ".iloc"
	path := filepath.Join(dir, name)
	var b strings.Builder
	fmt.Fprintf(&b, "# difftest artifact\n")
	fmt.Fprintf(&b, "# kind: %s\n", f.Kind)
	fmt.Fprintf(&b, "# seed: %d\n", f.Seed)
	fmt.Fprintf(&b, "# level: %s\n", f.Level)
	if f.GVN != "" {
		fmt.Fprintf(&b, "# gvn: %s\n", f.GVN)
	}
	if f.PRE != "" {
		fmt.Fprintf(&b, "# pre: %s\n", f.PRE)
	}
	fmt.Fprintf(&b, "# shrunk: %v (%d -> %d instructions)\n", f.Shrunk, f.OrigInstrs, f.MinInstrs)
	for _, line := range strings.Split(f.Detail, "\n") {
		fmt.Fprintf(&b, "# detail: %s\n", line)
	}
	b.WriteString(f.Program.String())
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
