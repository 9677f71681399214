// Package suite provides the benchmark workloads that regenerate the
// paper's Table 1 (dynamic operation counts at four optimization
// levels) and Table 2 (code expansion from forward propagation).
//
// The paper's test suite was "50 routines, drawn from the Spec
// benchmark suite and from Forsythe, Malcolm, and Moler's book on
// numerical methods".  Those FORTRAN sources are not available here,
// so each routine below re-implements the published algorithm (FMM
// kernels) or the characteristic loop idiom (SPEC-style kernels) in
// Mini-Fortran, preserving what matters to the paper's claims: naive
// front-end code shape, column-major 1-based array addressing,
// DO-loop nests, and the mix of integer address arithmetic with
// floating-point computation.  Routine names follow Table 1's rows
// where the idiom matches.
package suite

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
)

// Routine is one benchmark workload: a source program (Mini-Fortran,
// PL/0, or raw ILOC), the driver entry point, and a reference result
// for validation.
type Routine struct {
	Name   string
	Note   string // which paper routine/idiom this mirrors
	Source string
	Driver string
	Args   []interp.Value

	// Exactly one of RefInt/RefFloat is set.  Tol is the relative
	// tolerance for float results: reassociation legitimately changes
	// floating-point rounding, as FORTRAN's language rules permit.
	RefInt   *int64
	RefFloat *float64
	Tol      float64
}

// Compile translates the routine's source to IR through the language
// registry: Mini-Fortran for most routines, PL/0 for the procedural
// family, and a raw ILOC parse for routines promoted from the
// differential fuzzer's random program generator.  All consumers must
// compile through this method rather than calling a front end
// directly so every family works.
func (r *Routine) Compile() (*ir.Program, error) {
	prog, _, err := lang.Compile(r.Source, "")
	return prog, err
}

// Lang reports the routine's canonical source language ("mf", "pl0",
// or "iloc" for generated routines); unrecognizable sources return "".
func (r *Routine) Lang() string {
	l, err := lang.Detect(r.Source)
	if err != nil {
		return ""
	}
	return l.Name
}

// Generated reports whether the routine is raw ILOC promoted from the
// fuzzer's program generator rather than a front-end language.
// Measurements calibrated against the paper's FORTRAN corpus (the
// analysis-cache reduction numbers) exclude generated routines;
// correctness gates (golden hashes, checked mode, Table 1/2) include
// them.
func (r *Routine) Generated() bool {
	return r.Lang() == "iloc"
}

// Check validates an interpreted result against the reference.
func (r *Routine) Check(v interp.Value) error {
	switch {
	case r.RefInt != nil:
		if v.Float {
			return fmt.Errorf("%s: got float %v, want int %d", r.Name, v.F, *r.RefInt)
		}
		if v.I != *r.RefInt {
			return fmt.Errorf("%s: got %d, want %d", r.Name, v.I, *r.RefInt)
		}
	case r.RefFloat != nil:
		if !v.Float {
			return fmt.Errorf("%s: got int %v, want float %g", r.Name, v.I, *r.RefFloat)
		}
		want := *r.RefFloat
		tol := r.Tol
		if tol == 0 {
			tol = 1e-6
		}
		diff := math.Abs(v.F - want)
		scale := math.Max(math.Abs(want), 1)
		if diff > tol*scale || math.IsNaN(v.F) {
			return fmt.Errorf("%s: got %.12g, want %.12g (tol %g)", r.Name, v.F, want, tol)
		}
	default:
		return fmt.Errorf("%s: routine has no reference result", r.Name)
	}
	return nil
}

func intRef(v int64) *int64       { return &v }
func floatRef(v float64) *float64 { return &v }

// registry collects routines as the routine files register them.
var registry []Routine

func register(r Routine) { registry = append(registry, r) }

// All returns every suite routine, sorted by name.  The order is
// explicitly canonical (not registration or map order) so serial,
// parallel and cached consumers all iterate identically.
func All() []Routine {
	out := append([]Routine(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// measureAll computes one row per suite routine, fanning the routines
// out across up to workers goroutines (workers <= 1 is serial).  Rows
// land in a slice indexed by routine, so they are identical for any
// worker count; the error is the first failing routine's, in suite
// order.  Callers sort the rows themselves.
func measureAll[R any](workers int, row func(Routine) (R, error)) ([]R, error) {
	routines := All()
	rows := make([]R, len(routines))
	errs := make([]error, len(routines))
	if workers <= 1 {
		for i, r := range routines {
			rows[i], errs[i] = row(r)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, r := range routines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rows[i], errs[i] = row(r)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// ByName returns the named routine.
func ByName(name string) (Routine, bool) {
	for _, r := range registry {
		if r.Name == name {
			return r, true
		}
	}
	return Routine{}, false
}
