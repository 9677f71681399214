package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/check"
	"repro/internal/coalesce"
	"repro/internal/cse"
	"repro/internal/dce"
	"repro/internal/gvn"
	"repro/internal/ir"
	"repro/internal/lvn"
	"repro/internal/peephole"
	"repro/internal/pre"
	"repro/internal/reassoc"
	"repro/internal/sccp"
	"repro/internal/strength"
)

// Level names one of the paper's Table 1 optimization levels.
type Level string

// The four levels of Table 1, in order of increasing transformation.
const (
	// LevelNone performs no optimization at all (not in Table 1; the
	// raw front-end output, useful for debugging and ablations).
	LevelNone Level = "none"
	// LevelBaseline is "a sequence of global constant propagation,
	// global peephole optimization, global dead code elimination,
	// coalescing, and a final pass to eliminate empty basic blocks".
	LevelBaseline Level = "baseline"
	// LevelPartial adds PRE before the baseline sequence.
	LevelPartial Level = "partial"
	// LevelReassoc runs global reassociation (without distribution)
	// and global value numbering before PRE and the baseline.
	LevelReassoc Level = "reassociation"
	// LevelDist is LevelReassoc with distribution of multiplication
	// over addition enabled.
	LevelDist Level = "distribution"
)

// Levels lists the Table 1 levels in presentation order.
var Levels = []Level{LevelBaseline, LevelPartial, LevelReassoc, LevelDist}

// GVNBackend selects the analysis behind the pipeline's value-numbering
// slot.  Both backends share the renaming transformation (classes →
// representative registers); they differ only in which congruences the
// analysis proves.
type GVNBackend string

const (
	// GVNAWZ is the paper's backend: Alpern–Wegman–Zadeck partition
	// refinement, "the simplest variation" (§4).  The zero value of
	// GVNBackend behaves as GVNAWZ everywhere.
	GVNAWZ GVNBackend = "awz"
	// GVNPrecise is the sparse iterative value-expression analysis with
	// value-φ folding (fold/compose rules); it proves strictly more
	// congruences — every AWZ congruence plus those that flow through
	// φs (φ(x,x) ≡ x, φ(x+1,y+1) ≡ φ(x,y)+1) and commutations.
	GVNPrecise GVNBackend = "precise"
)

// GVNBackends lists the selectable backends in presentation order.
var GVNBackends = []GVNBackend{GVNAWZ, GVNPrecise}

// ParseGVNBackend maps a -gvn flag value to a backend; the empty string
// selects the default (AWZ).
func ParseGVNBackend(s string) (GVNBackend, error) { return parseBackend("GVN", s, GVNBackends) }

// PassName is the pipeline pass implementing this backend.
func (b GVNBackend) PassName() string { return backendPass[orDefault(b, GVNBackends)] }

// PREBackend selects the algorithm behind the pipeline's redundancy-
// elimination slot.  All three backends eliminate partial redundancies
// by inserting computations and rewriting occurrences into copies; they
// differ in placement strategy and safety envelope.
type PREBackend string

const (
	// PREDrechsler is the paper's backend: the Drechsler–Stadel
	// edge-placement variant of Morel–Renvoise PRE (pre.Drechsler),
	// with the Mode A naming discipline.  The zero value of PREBackend
	// behaves as PREDrechsler everywhere.
	PREDrechsler PREBackend = "drechsler"
	// PRELCM is Knoop–Rüthing–Steffen lazy code motion
	// (pre.LCM): computationally optimal like Drechsler–Stadel
	// but additionally lifetime-optimal — insertions are postponed to
	// the latest down-safe points, minimizing temp live ranges.
	PRELCM PREBackend = "lcm"
	// PRELospre is speculative PRE as a per-expression minimum cut
	// (pre.Lospre): it may insert on paths that never computed
	// the expression when the frequency model says that is cheaper,
	// restricted to operations that cannot trap.
	PRELospre PREBackend = "lospre"
)

// PREBackends lists the selectable backends in presentation order.
var PREBackends = []PREBackend{PREDrechsler, PRELCM, PRELospre}

// ParsePREBackend maps a -pre flag value to a backend; the empty string
// selects the default (Drechsler–Stadel).
func ParsePREBackend(s string) (PREBackend, error) { return parseBackend("PRE", s, PREBackends) }

// PassName is the pipeline pass implementing this backend.
func (b PREBackend) PassName() string { return backendPass[orDefault(b, PREBackends)] }

// backendPass is the one backend table: the pass that fills a slot for
// each selectable backend.  The first backend of GVNBackends and of
// PREBackends is its slot's default.
var backendPass = map[any]string{
	GVNAWZ:       "gvn",
	GVNPrecise:   "gvn-precise",
	PREDrechsler: "pre",
	PRELCM:       "pre-lcm",
	PRELospre:    "pre-lospre",
}

// orDefault folds the zero value into the slot's default backend.
func orDefault[B ~string](b B, backends []B) B {
	if b == "" {
		return backends[0]
	}
	return b
}

// parseBackend maps a flag value to one of a slot's backends; the empty
// string selects the default.
func parseBackend[B ~string](slot, s string, backends []B) (B, error) {
	names := make([]string, len(backends))
	for i, b := range backends {
		if string(b) == s || s == "" && i == 0 {
			return b, nil
		}
		names[i] = string(b)
	}
	last := len(names) - 1
	return "", fmt.Errorf("core: unknown %s backend %q (want %s or %s)",
		slot, s, strings.Join(names[:last], ", "), names[last])
}

// ParseLevel maps a level name (or its common abbreviations) to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "none", "raw":
		return LevelNone, nil
	case "baseline", "base":
		return LevelBaseline, nil
	case "partial", "pre":
		return LevelPartial, nil
	case "reassociation", "reassoc":
		return LevelReassoc, nil
	case "distribution", "dist":
		return LevelDist, nil
	}
	return "", fmt.Errorf("core: unknown optimization level %q", s)
}

// PassContext carries everything a pass application needs: the function
// under optimization, a cancellation context, and the function's shared
// analysis cache.  Passes pull dominators, liveness, loops and reverse
// postorder from Analyses instead of rebuilding them, and the cache
// invalidates itself from the function's mutation generations.
type PassContext struct {
	Ctx      context.Context
	Func     *ir.Func
	Analyses *analysis.Cache
}

// Pass is one optimizer phase: a named transformation over a function,
// mirroring the paper's structure of the optimizer as "a sequence of
// passes, where each pass is a Unix filter" (§4).
//
// Run returns the pass package's own statistics for the application
// (pre.Stats, reassoc.Stats, ...), which the driver hands to
// OptimizeOptions.OnPass as PassInfo.Stats.  Whether the pass changed
// the function is not the pass's to report: the driver reads it from
// the function's mutation generations.
type Pass struct {
	Name string
	Run  func(*PassContext) any
}

var (
	passIndexOnce sync.Once
	passIndex     map[string]Pass
)

// PassByName returns the named pass; see AllPasses.
func PassByName(name string) (Pass, error) {
	passIndexOnce.Do(func() {
		passIndex = make(map[string]Pass)
		for _, p := range AllPasses() {
			passIndex[p.Name] = p
		}
	})
	p, ok := passIndex[name]
	if !ok {
		return Pass{}, fmt.Errorf("core: unknown pass %q", name)
	}
	return p, nil
}

// Passes resolves a list of pass names into the sequence RunPasses and
// CheckedRun apply.
func Passes(names ...string) ([]Pass, error) {
	passes := make([]Pass, len(names))
	for i, name := range names {
		p, err := PassByName(name)
		if err != nil {
			return nil, err
		}
		passes[i] = p
	}
	return passes, nil
}

// AllPasses enumerates every individually runnable pass.
func AllPasses() []Pass {
	return []Pass{
		{"sccp", func(pc *PassContext) any {
			return sccp.RunWith(pc.Ctx, pc.Func, pc.Analyses)
		}},
		{"peephole", func(pc *PassContext) any {
			return peephole.Run(pc.Func, peephole.Options{})
		}},
		{"peephole-shift", func(pc *PassContext) any {
			return peephole.Run(pc.Func, peephole.Options{MulToShift: true})
		}},
		{"dce", func(pc *PassContext) any {
			return dce.RunWith(pc.Func, pc.Analyses)
		}},
		{"coalesce", func(pc *PassContext) any {
			return coalesce.RunWith(pc.Func, pc.Analyses)
		}},
		// emptyblocks reports how many blocks it removed or merged.
		{"emptyblocks", func(pc *PassContext) any {
			n := pc.Analyses.RemoveUnreachable()
			n += cfg.RemoveEmptyBlocks(pc.Func)
			n += cfg.MergeStraightLine(pc.Func)
			return n
		}},
		{"normalize", func(pc *PassContext) any {
			return Normalize(pc.Func)
		}},
		{"pre", func(pc *PassContext) any {
			return pre.RunToFixpoint(pc.Ctx, pc.Func, pc.Analyses, pre.Drechsler)
		}},
		{"pre-lcm", func(pc *PassContext) any {
			return pre.RunToFixpoint(pc.Ctx, pc.Func, pc.Analyses, pre.LCM)
		}},
		{"pre-lospre", func(pc *PassContext) any {
			return pre.RunToFixpoint(pc.Ctx, pc.Func, pc.Analyses, pre.Lospre)
		}},
		{"gvn", func(pc *PassContext) any {
			return gvn.RunWith(pc.Func, pc.Analyses)
		}},
		{"gvn-precise", func(pc *PassContext) any {
			return gvn.RunPreciseWith(pc.Func, pc.Analyses)
		}},
		{"reassoc", func(pc *PassContext) any {
			return reassoc.RunWith(pc.Func, reassoc.Options{AllowFloat: true}, pc.Analyses)
		}},
		{"reassoc-dist", func(pc *PassContext) any {
			return reassoc.RunWith(pc.Func, reassoc.Options{Distribute: true, AllowFloat: true}, pc.Analyses)
		}},
		{"cse-dom", func(pc *PassContext) any {
			return cse.RunDominatorWith(pc.Func, pc.Analyses)
		}},
		{"cse-avail", func(pc *PassContext) any {
			return cse.RunAvailWith(pc.Func, pc.Analyses)
		}},
		// Extensions: the two passes the paper reports missing (§4.1)
		// and expects to compose with reassociation (§5.2).
		{"lvn", func(pc *PassContext) any {
			return lvn.Run(pc.Func)
		}},
		{"strength", func(pc *PassContext) any {
			return strength.RunWith(pc.Func, pc.Analyses)
		}},
		// Diagnostic pass: transforms nothing, runs the semantic
		// checkers and reports findings on stderr.  In a filter
		// pipeline it acts as an assertion stage (cmd/ilocfilter gives
		// it a failing exit status on errors).
		{"check", func(pc *PassContext) any {
			check.Report(os.Stderr, checkFunc(pc))
			return nil
		}},
	}
}

// checkFunc runs the semantic checkers for the check pass through the
// shared analysis cache.
func checkFunc(pc *PassContext) []check.Diagnostic {
	return check.FuncWith(pc.Func, check.Options{}, pc.Analyses)
}

// baselineTail is the paper's baseline sequence, run at the end of
// every level.
func baselineTail() []string {
	return []string{"sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"}
}

// PassNames returns the pass sequence for a level with the default
// backends (AWZ value numbering, Drechsler–Stadel PRE).
func PassNames(level Level) []string { return PassNamesWith(level, GVNAWZ, PREDrechsler) }

// PassNamesWith returns the pass sequence for a level with the given
// backends filling the pipeline's GVN and PRE slots.  Levels without a
// slot are identical across that slot's backends: baseline has neither,
// partial has only the PRE slot.
func PassNamesWith(level Level, gvn GVNBackend, pre PREBackend) []string {
	g := gvn.PassName()
	p := pre.PassName()
	switch level {
	case LevelNone:
		return nil
	case LevelBaseline:
		return baselineTail()
	case LevelPartial:
		return append([]string{"normalize", p}, baselineTail()...)
	case LevelReassoc:
		return append([]string{"reassoc", g, "normalize", p}, baselineTail()...)
	case LevelDist:
		return append([]string{"reassoc-dist", g, "normalize", p}, baselineTail()...)
	}
	return nil
}

// PipelineVersion is a fingerprint of the optimizer's pass pipelines:
// a hash over every level's pass sequence and the full pass inventory.
// Content-addressed caches fold it into their keys so a cached result
// is invalidated automatically whenever a pass is added, removed,
// renamed or resequenced.  It is deterministic across processes
// and runs.
func PipelineVersion() string { return PipelineVersionFor(GVNAWZ, PREDrechsler) }

// PipelineVersionFor is the pipeline fingerprint with the given GVN and
// PRE backends selected.  Each backend changes some level's pass
// sequence (and both are hashed explicitly besides), so distinct
// backend combinations always fingerprint differently and a
// content-addressed cache can never serve one combination's result for
// another's request.
func PipelineVersionFor(gvn GVNBackend, pre PREBackend) string {
	return pipelineVersion(AllPasses(), gvn, pre)
}

// pipelineVersion computes the fingerprint over a given pass inventory;
// split out so tests can prove the hash is sensitive to inventory edits.
func pipelineVersion(passes []Pass, gvn GVNBackend, pre PREBackend) string {
	h := sha256.New()
	io.WriteString(h, "gvn-backend:")
	io.WriteString(h, string(orDefault(gvn, GVNBackends)))
	io.WriteString(h, "\n")
	io.WriteString(h, "pre-backend:")
	io.WriteString(h, string(orDefault(pre, PREBackends)))
	io.WriteString(h, "\n")
	for _, l := range append([]Level{LevelNone}, Levels...) {
		io.WriteString(h, string(l))
		for _, name := range PassNamesWith(l, gvn, pre) {
			io.WriteString(h, ":")
			io.WriteString(h, name)
		}
		io.WriteString(h, "\n")
	}
	for _, p := range passes {
		io.WriteString(h, p.Name)
		io.WriteString(h, "\n")
	}
	return "epre-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// PassInfo describes one pass application, delivered to
// OptimizeOptions.OnPass.
type PassInfo struct {
	Func     string
	Pass     string
	Duration time.Duration
	// Changed reports that the application moved the function's
	// mutation generation, i.e. modified it.
	Changed bool
	// Stats is the pass's own statistics for this application, as
	// returned by Pass.Run: pre.Stats, sccp.Stats, reassoc.Stats, ...,
	// the emptyblocks count (an int), or nil for the check pass.
	Stats any
	// Builds counts the analyses the shared cache had to (re)build
	// during this pass — cache misses, not total queries.
	Builds analysis.BuildCounts
}

// OptimizeOptions tune a run — OptimizeWith, RunPasses, CheckedRun —
// beyond its passes.  The zero value reproduces plain Optimize:
// background context, no instrumentation, the paper's GVN and PRE
// backends.
type OptimizeOptions struct {
	// Ctx, when non-nil, is checked between passes and plumbed into
	// any checked-mode differential interpretation; optimization stops
	// with an error wrapping ctx.Err() once it is done.
	Ctx context.Context
	// OnPass, when non-nil, observes every pass application on the
	// calling goroutine: in pass order, and within one pass in program
	// function order.
	OnPass func(PassInfo)
	// GVN selects the value-numbering backend filling the pipeline's
	// GVN slot at the reassociation levels.  The zero value is GVNAWZ,
	// the paper's configuration.
	GVN GVNBackend
	// PRE selects the redundancy-elimination backend filling the
	// pipeline's PRE slot at the partial level and above.  The zero
	// value is PREDrechsler, the paper's configuration.
	PRE PREBackend
}

func (o OptimizeOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Optimize applies a level to every function of a program, returning a
// new program (the input is not modified).  With EPRE_CHECK=1 in the
// environment every pass application is additionally checked by the
// internal/check analyzers (see CheckedRun) and any error diagnostic
// fails the optimization.
//
// Optimize (and OptimizeWith) is safe for concurrent use on distinct
// programs: the passes keep all scratch state per invocation and the
// input program is cloned before any transformation.
func Optimize(p *ir.Program, level Level) (*ir.Program, error) {
	return OptimizeWith(p, level, OptimizeOptions{})
}

// OptimizeWith is Optimize with a context, backend selection and
// per-pass instrumentation; see OptimizeOptions.  Functions are
// optimized one after another on the calling goroutine; callers that
// want parallelism run independent programs concurrently.
func OptimizeWith(p *ir.Program, level Level, opts OptimizeOptions) (*ir.Program, error) {
	passes, err := Passes(PassNamesWith(level, opts.GVN, opts.PRE)...)
	if err != nil {
		return nil, err
	}
	return RunPasses(p, passes, opts)
}

// RunPasses applies an explicit pass sequence to a copy of the program
// (the input is not modified) — the Unix-filter view of the optimizer.
// The passes name their own backends, so opts.GVN and opts.PRE are not
// consulted.  With EPRE_CHECK=1 in the environment it runs as
// CheckedRun with translation validation, and any error diagnostic
// fails the run.
func RunPasses(p *ir.Program, passes []Pass, opts OptimizeOptions) (*ir.Program, error) {
	if !CheckEnabled() {
		out, _, err := run(p, passes, opts, nil)
		return out, err
	}
	out, diags, err := CheckedRun(p, passes, opts, CheckConfig{Validate: true})
	if err != nil {
		return nil, err
	}
	if errs := check.Errors(diags); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, d := range errs {
			msgs[i] = d.String()
		}
		return nil, fmt.Errorf("core: checked optimize: %s", strings.Join(msgs, "; "))
	}
	return out, nil
}

// run is the one pass driver: every entry point above ends here.  It
// clones p and applies the passes in order, each over every function;
// a function keeps one analysis cache for the whole run.  The context
// is polled before each pass, every application is reported to
// opts.OnPass, and a function whose code generation the pass moved is
// re-verified (the code generation advances on every mutation, CFG
// edits included).  A non-nil cfg selects checked mode (see
// CheckedRun), which works on whole-program snapshots and so needs this
// pass-major order; a pass sees only its own function, so the order
// does not change the output.
func run(p *ir.Program, passes []Pass, opts OptimizeOptions, cfg *CheckConfig) (*ir.Program, []check.Diagnostic, error) {
	ctx := opts.ctx()
	out := p.Clone()
	pcs := make([]PassContext, len(out.Funcs))
	for i, f := range out.Funcs {
		pcs[i] = PassContext{Ctx: ctx, Func: f, Analyses: analysis.NewCache(f)}
	}
	var diags []check.Diagnostic
	// checked[i] records that function i has not changed since its last
	// DefUse check, so the check runs after the first pass and after
	// every pass that changes the function, never twice on one body.
	checked := make([]bool, len(out.Funcs))
	for _, pass := range passes {
		if err := ctx.Err(); err != nil {
			return nil, diags, fmt.Errorf("before pass %s: %w", pass.Name, err)
		}
		var before *ir.Program
		if cfg != nil && cfg.Validate {
			before = out.Clone()
		}
		anyChanged := false
		for i := range pcs {
			pc := &pcs[i]
			gen := pc.Func.CodeGeneration()
			builds := pc.Analyses.Counts()
			start := time.Now()
			stats := pass.Run(pc)
			changed := pc.Func.CodeGeneration() != gen
			if opts.OnPass != nil {
				opts.OnPass(PassInfo{
					Func:     pc.Func.Name,
					Pass:     pass.Name,
					Duration: time.Since(start),
					Changed:  changed,
					Stats:    stats,
					Builds:   pc.Analyses.Counts().Sub(builds),
				})
			}
			// A pass that left the function untouched cannot have
			// invalidated the verified invariants; skip re-verification.
			if !changed {
				continue
			}
			anyChanged, checked[i] = true, false
			if err := ir.Verify(pc.Func); err != nil {
				return nil, diags, fmt.Errorf("%s: after pass %s: %w", pc.Func.Name, pass.Name, err)
			}
		}
		if cfg == nil {
			continue
		}
		for i := range pcs {
			if !checked[i] {
				checked[i] = true
				diags = append(diags, check.TagPass(check.DefUseWith(pcs[i].Func, false, pcs[i].Analyses), pass.Name)...)
			}
		}
		if cfg.Validate && anyChanged {
			opt := check.ValidateOptions{Ctx: ctx, FloatTol: FloatTol(pass.Name)}
			diags = append(diags, check.ValidatePass(before, out, pass.Name, opt)...)
			if err := ctx.Err(); err != nil {
				return nil, diags, fmt.Errorf("validating pass %s: %w", pass.Name, err)
			}
		}
	}
	return out, diags, nil
}
