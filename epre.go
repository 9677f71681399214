// Package epre reproduces Briggs & Cooper, "Effective Partial
// Redundancy Elimination" (PLDI 1994): an ILOC-based optimizer in
// which global reassociation and partition-based global value
// numbering reshape and rename code so that partial redundancy
// elimination finds more redundancies and hoists more loop invariants.
//
// The package is the public face of the library.  Typical use:
//
//	prog, _ := epre.Compile(src)                  // Mini-Fortran → ILOC
//	opt, _ := prog.Optimize(epre.LevelReassoc)    // paper's 3rd level
//	res, _ := opt.Run("driver", epre.Int(100))    // interpret, count ops
//	fmt.Println(res.DynamicOps)
//
// The four optimization levels correspond to the columns of the
// paper's Table 1; Run's dynamic operation count is the paper's
// metric.  See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the reproduced tables and figures.
package epre

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/minift"
	"repro/internal/pl0"
	"repro/internal/reassoc"
	"repro/internal/regalloc"
)

// Level selects an optimization pipeline (a Table 1 column).
type Level = core.Level

// The optimization levels of the paper's Table 1, plus LevelNone.
const (
	LevelNone     = core.LevelNone
	LevelBaseline = core.LevelBaseline
	LevelPartial  = core.LevelPartial
	LevelReassoc  = core.LevelReassoc
	LevelDist     = core.LevelDist
)

// Levels lists the Table 1 levels in presentation order.
var Levels = core.Levels

// ParseLevel maps a level name ("baseline", "partial", "reassoc",
// "dist", ...) to a Level.
func ParseLevel(s string) (Level, error) { return core.ParseLevel(s) }

// Value is a dynamically typed machine value (int64 or float64).
type Value = interp.Value

// Int wraps an integer argument for Run.
func Int(i int64) Value { return interp.IntVal(i) }

// Float wraps a floating argument for Run.
func Float(f float64) Value { return interp.FloatVal(f) }

// Program is a compiled ILOC program.
type Program struct {
	prog *ir.Program
}

// Compile compiles Mini-Fortran source to an unoptimized ILOC program.
func Compile(src string) (*Program, error) {
	p, err := minift.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// MustCompile is Compile panicking on error, for tests and examples.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// CompilePL0 compiles PL/0 source to an unoptimized ILOC program.
func CompilePL0(src string) (*Program, error) {
	p, err := pl0.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// CompileAny compiles source in any supported language — Mini-Fortran,
// PL/0, or textual ILOC — detecting which from the source's leading
// keyword.
func CompileAny(src string) (*Program, error) {
	p, _, err := lang.Compile(src, "")
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// ParseILOC parses a program in textual ILOC form.
func ParseILOC(text string) (*Program, error) {
	p, err := ir.ParseProgramString(text)
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyProgram(p); err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// ILOC renders the program as ILOC text (parseable by ParseILOC).
func (p *Program) ILOC() string { return p.prog.String() }

// StaticOps returns the static instruction count (the paper's
// Table 2 metric).
func (p *Program) StaticOps() int { return p.prog.InstrCount() }

// Functions lists the program's function names.
func (p *Program) Functions() []string {
	names := make([]string, len(p.prog.Funcs))
	for i, f := range p.prog.Funcs {
		names[i] = f.Name
	}
	return names
}

// Optimize returns a new program transformed at the given level; the
// receiver is unchanged.  Optimize is safe for concurrent use on
// distinct Programs.
func (p *Program) Optimize(level Level) (*Program, error) {
	out, err := core.Optimize(p.prog, level)
	if err != nil {
		return nil, err
	}
	return &Program{prog: out}, nil
}

// OptimizeChecked is Optimize with every pass application sandwiched
// between semantic checks: structural verification, the dataflow/SSA
// def-use verifier, and translation validation by differential
// interpretation (see internal/check).  It returns the rendered
// diagnostics alongside the transformed program; the program is safe
// to use only when no diagnostics were reported.  Setting EPRE_CHECK=1
// in the environment applies the same checking to plain Optimize and
// OptimizePasses.
func (p *Program) OptimizeChecked(level Level) (*Program, []string, error) {
	passes, err := core.Passes(core.PassNames(level)...)
	if err != nil {
		return nil, nil, err
	}
	out, diags, err := core.CheckedRun(p.prog, passes, core.OptimizeOptions{}, core.CheckConfig{Validate: true})
	if err != nil {
		return nil, nil, err
	}
	msgs := make([]string, len(diags))
	for i, d := range diags {
		msgs[i] = d.String()
	}
	return &Program{prog: out}, msgs, nil
}

// OptimizePasses applies an explicit pass sequence by name (the
// Unix-filter view of the optimizer; see core.AllPasses).  Like
// Optimize it honours EPRE_CHECK.
func (p *Program) OptimizePasses(names ...string) (*Program, error) {
	passes, err := core.Passes(names...)
	if err != nil {
		return nil, err
	}
	out, err := core.RunPasses(p.prog, passes, core.OptimizeOptions{})
	if err != nil {
		return nil, err
	}
	return &Program{prog: out}, nil
}

// RunResult reports one interpreted execution.
type RunResult struct {
	// Value is the called function's return value.
	Value Value
	// DynamicOps counts executed ILOC operations, branches included —
	// the paper's Table 1 metric.
	DynamicOps int64
	// Output collects values written by print statements.
	Output []Value
}

// Run interprets the program, calling the named function.
func (p *Program) Run(fn string, args ...Value) (RunResult, error) {
	m := interp.NewMachine(p.prog)
	v, err := m.Call(fn, args...)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Value: v, DynamicOps: m.Steps, Output: m.Output}, nil
}

// ForwardPropagationExpansion runs the reassociation pass alone on a
// copy of the program and reports the static instruction counts before
// and after forward propagation, summed over functions — one row of
// the paper's Table 2.  The counts are the pass's own reassoc.Stats,
// read from the pass driver, so the run is verified (and checked under
// EPRE_CHECK=1) like any other; a failure is returned as the error.
func (p *Program) ForwardPropagationExpansion() (before, after int, err error) {
	passes, err := core.Passes("reassoc")
	if err != nil {
		return 0, 0, err
	}
	count := func(info core.PassInfo) {
		st := info.Stats.(reassoc.Stats)
		before += st.BeforeProp
		after += st.AfterProp
	}
	if _, err = core.RunPasses(p.prog, passes, core.OptimizeOptions{OnPass: count}); err != nil {
		return 0, 0, err
	}
	return before, after, nil
}

// AllocateRegisters maps the program onto k physical registers with a
// Chaitin–Briggs graph-coloring allocator, inserting spill code backed
// by static memory slots.  It returns the number of spilled values.
// The program must be fully optimized first (φ-free); k must be at
// least regalloc.MinK (4).
func (p *Program) AllocateRegisters(k int) (spilled int, err error) {
	res, err := regalloc.Run(p.prog, k)
	if err != nil {
		return 0, err
	}
	return res.Spilled, nil
}

// Dump returns the ILOC text of a single function, for inspection.
func (p *Program) Dump(fn string) (string, error) {
	f := p.prog.Func(fn)
	if f == nil {
		return "", fmt.Errorf("epre: no function %q", fn)
	}
	var sb strings.Builder
	f.Fprint(&sb)
	return sb.String(), nil
}
