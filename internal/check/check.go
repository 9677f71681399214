// Package check is the semantic static-analysis layer over the ILOC IR.
// Where ir.Verify guards structural invariants (terminators, edge
// symmetry, φ arity), this package proves deeper properties:
//
//   - defuse.go: a dataflow/SSA verifier that proves every register use
//     is dominated by a definition, using the dominator tree for
//     single-definition registers and a definite-assignment dataflow for
//     the general (non-SSA) case; φ operands are checked along their
//     predecessor edge.
//   - discipline.go: a lint for the paper's naming contract (§2.2,
//     §5.1) — only copies, calls, φs and enter target variable names;
//     expression names must not be live across block boundaries.
//   - validate.go: a per-pass translation validator that checks a
//     transformed program against the original by differential
//     interpretation on generated inputs, with a value-numbering-based
//     equivalence fast path.
//   - oracle.go: the one differential comparison (Observe, Disagree)
//     that translation validation and the fuzzer (internal/difftest)
//     both judge a program with.
//
// All analyzers report findings as Diagnostics rather than errors, so a
// driver can aggregate results across passes and functions and decide
// its own failure policy (core.CheckedRun, cmd/epre lint,
// cmd/ilocfilter check).
package check

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// Severity grades a diagnostic.
type Severity int

const (
	// SevWarning marks suspicious but not provably wrong code.
	SevWarning Severity = iota
	// SevError marks a provable violation: an undefined use, a broken
	// naming contract, or a semantic difference between pass input and
	// output.
	SevError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding from a semantic analyzer.
type Diagnostic struct {
	Analyzer string   // "defuse", "discipline", "validate", ...
	Severity Severity // warning or error
	Func     string   // function name
	Block    string   // block label ("" when function-level)
	Instr    int      // instruction index within Block, or -1
	Pass     string   // offending pass, when known ("" otherwise)
	Msg      string
}

// String renders the diagnostic as "func/block:instr: severity [analyzer] msg"
// with the offending pass appended when known.
func (d Diagnostic) String() string {
	var sb strings.Builder
	sb.WriteString(d.Func)
	if d.Block != "" {
		sb.WriteByte('/')
		sb.WriteString(d.Block)
		if d.Instr >= 0 {
			fmt.Fprintf(&sb, ":%d", d.Instr)
		}
	}
	fmt.Fprintf(&sb, ": %s [%s] %s", d.Severity, d.Analyzer, d.Msg)
	if d.Pass != "" {
		fmt.Fprintf(&sb, " (after pass %s)", d.Pass)
	}
	return sb.String()
}

// Errors filters the error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var errs []Diagnostic
	for _, d := range diags {
		if d.Severity == SevError {
			errs = append(errs, d)
		}
	}
	return errs
}

// TagPass stamps a pass name onto every diagnostic that lacks one.
func TagPass(diags []Diagnostic, pass string) []Diagnostic {
	for i := range diags {
		if diags[i].Pass == "" {
			diags[i].Pass = pass
		}
	}
	return diags
}

// Report writes one diagnostic per line.
func Report(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}

// Options configure the per-function analyzers.
type Options struct {
	// StrictSSA additionally requires single definitions per register,
	// the invariant of true SSA form.  Off by default: most pipeline
	// states are legitimately out of SSA.
	StrictSSA bool
	// Discipline additionally runs the naming-discipline lint.  Off by
	// default: raw front-end output violates the contract by design
	// (establishing it is normalize/gvn's job).
	Discipline bool
}

// Func runs the static analyzers on one function and returns their
// findings.  The function should already pass ir.Verify; structurally
// broken input may produce noisy diagnostics but never panics the
// analyzers into reading out-of-range registers.  CFG analyses come
// from the given cache; the analyzers never mutate f, so the cache
// stays valid afterwards.
func Func(f *ir.Func, opt Options, ac *analysis.Cache) []Diagnostic {
	diags := DefUse(f, opt.StrictSSA, ac)
	if opt.Discipline {
		diags = append(diags, Discipline(f)...)
	}
	return diags
}

// Program runs Func over every function of a program.
func Program(p *ir.Program, opt Options) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Funcs {
		diags = append(diags, Func(f, opt, analysis.NewCache(f))...)
	}
	return diags
}
