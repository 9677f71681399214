package core

import (
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/ir"
)

// CheckEnv is the environment variable that turns every optimization
// into a checked one: set EPRE_CHECK=1 and the whole stack — the public
// API, cmd/epre, cmd/ilocfilter, the table harnesses — sandwiches every
// pass between semantic checks and fails on any error diagnostic.
const CheckEnv = "EPRE_CHECK"

// CheckEnabled reports whether the EPRE_CHECK environment variable
// requests checked optimization.
func CheckEnabled() bool {
	v := os.Getenv(CheckEnv)
	return v != "" && v != "0"
}

// CheckConfig tunes the per-pass checking of CheckedRun.
type CheckConfig struct {
	// Validate enables translation validation (differential
	// interpretation) for every pass application.  The dataflow/SSA
	// verifier always runs; validation is the expensive part.
	Validate bool
}

// FloatTol is the relative float tolerance a differential comparison
// grants a pass sequence.  Reassociation may legitimately change
// floating-point rounding, so a sequence containing a reassociating
// pass is compared within 1e-6 (and, being inexact, without the final
// memory image); every other sequence is compared exactly.  Checked
// mode asks per pass, the fuzzer per level with PassNamesWith.
func FloatTol(passes ...string) float64 {
	for _, p := range passes {
		if strings.HasPrefix(p, "reassoc") {
			return 1e-6
		}
	}
	return 0
}

// CheckedRun is RunPasses with every pass application checked three
// ways:
//
//  1. ir.Verify — the structural invariants (a hard error, as in every
//     run);
//  2. check.DefUse — every register use is dominated by a definition;
//     a function is re-checked only after a pass changes it, so an
//     error is reported once, tagged with the first pass that left it;
//  3. check.ValidatePass — translation validation by differential
//     interpretation, with a congruence fast path (when cfg.Validate).
//
// Diagnostics accumulate across passes, each tagged with the pass that
// produced it; the transformed program is returned alongside them so
// callers can decide whether error diagnostics are fatal.  The error
// return is reserved for structural verification failures and an
// expired opts.Ctx, which the differential interpreter also polls, so
// a deadline produces a clean timeout error (wrapping ctx.Err()) rather
// than an unbounded validation run or a spurious miscompile diagnostic.
func CheckedRun(p *ir.Program, passes []Pass, opts OptimizeOptions, cfg CheckConfig) (*ir.Program, []check.Diagnostic, error) {
	return run(p, passes, opts, &cfg)
}
