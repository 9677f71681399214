package check

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
)

// refSteps bounds one reference run.  An input whose reference needs
// more is unaffordable, so nothing is concluded from it.
const refSteps = 1 << 20

// Observation is what one run of a function shows: its input, result,
// printed output, final global memory image and dynamic step count.
type Observation struct {
	Input  []interp.Value
	Result interp.Value
	Output []interp.Value
	Mem    []byte
	Steps  int64
}

// Observe runs fn of p on input as the reference side of a
// differential comparison.  It reports false when the reference traps,
// exceeds the step budget or is cancelled: its behavior is then
// undefined or unaffordable, and that input judges nothing.
func Observe(ctx context.Context, p *ir.Program, fn string, input []interp.Value) (Observation, bool) {
	m := interp.NewMachine(p)
	m.MaxSteps = refSteps
	m.SetContext(ctx)
	ret, err := m.Call(fn, input...)
	if err != nil {
		return Observation{}, false
	}
	return Observation{Input: input, Result: ret, Output: m.Output, Mem: m.Mem, Steps: m.Steps}, true
}

// Disagree runs fn of p on ref's input and returns the first way it
// disagrees with ref, or "" when it agrees.  Results and printed
// values are compared within the relative float tolerance tol; the
// final memory images are compared byte for byte only when tol is
// zero, since a pass that may change rounding may change stored floats
// too.  A cancelled ctx also yields a disagreement, so callers check
// ctx.Err() before blaming the program.
func Disagree(ctx context.Context, p *ir.Program, fn string, ref Observation, tol float64) string {
	m := interp.NewMachine(p)
	// Optimization never slows a program down by 4x plus a constant,
	// so hitting this budget means the transformed program loops where
	// the reference did not.
	m.MaxSteps = 4*ref.Steps + 4096
	m.SetContext(ctx)
	got, err := m.Call(fn, ref.Input...)
	if err != nil {
		var sl *interp.StepLimitError
		if errors.As(err, &sl) {
			return fmt.Sprintf("on input %v: reference finished in %d steps but transformed program exceeded %d (runaway loop)",
				ref.Input, ref.Steps, m.MaxSteps)
		}
		return fmt.Sprintf("on input %v: reference returns %s but transformed program fails: %v", ref.Input, ref.Result, err)
	}
	if !valuesAgree(ref.Result, got, tol) {
		return fmt.Sprintf("on input %v: result %s, want %s", ref.Input, got, ref.Result)
	}
	if len(m.Output) != len(ref.Output) {
		return fmt.Sprintf("on input %v: printed %d values, want %d", ref.Input, len(m.Output), len(ref.Output))
	}
	for i := range ref.Output {
		if !valuesAgree(ref.Output[i], m.Output[i], tol) {
			return fmt.Sprintf("on input %v: printed value %d is %s, want %s", ref.Input, i, m.Output[i], ref.Output[i])
		}
	}
	if tol == 0 && !bytes.Equal(ref.Mem, m.Mem) {
		return fmt.Sprintf("on input %v: final memory images differ", ref.Input)
	}
	return ""
}

// valuesAgree compares two interpreter values; float comparisons use
// the given relative tolerance (exact, bit-for-bit, when tol is zero).
func valuesAgree(want, got interp.Value, tol float64) bool {
	if want.Float != got.Float {
		return false
	}
	if !want.Float {
		return want.I == got.I
	}
	if tol == 0 {
		return math.Float64bits(want.F) == math.Float64bits(got.F) ||
			(math.IsNaN(want.F) && math.IsNaN(got.F))
	}
	if math.IsNaN(want.F) || math.IsNaN(got.F) {
		return math.IsNaN(want.F) == math.IsNaN(got.F)
	}
	if math.IsInf(want.F, 0) || math.IsInf(got.F, 0) {
		return want.F == got.F
	}
	diff := math.Abs(got.F - want.F)
	scale := math.Max(math.Abs(want.F), 1)
	return diff <= tol*scale
}
