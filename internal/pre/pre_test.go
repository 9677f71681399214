package pre

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/coalesce"
	"repro/internal/dce"
	"repro/internal/interp"
	"repro/internal/ir"
)

// run interprets fn with integer arguments and returns its result and
// the number of operations executed.
func run(t *testing.T, f *ir.Func, fn string, args ...int64) (int64, int64) {
	t.Helper()
	vals := make([]interp.Value, len(args))
	for i, a := range args {
		vals[i] = interp.IntVal(a)
	}
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
	v, err := m.Call(fn, vals...)
	if err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	return v.I, m.Steps
}

// cleanup removes the compensation copies LCM and lospre leave behind;
// like the paper's pipeline, they rely on coalescing for that.
func cleanup(f *ir.Func) {
	dce.Run(f)
	coalesce.Run(f)
	cfg.RemoveEmptyBlocks(f)
	dce.Run(f)
}

// fixpoint runs a strategy to its fixpoint with a fresh analysis cache.
func fixpoint(f *ir.Func, s Strategy) Stats {
	return RunToFixpoint(context.Background(), f, analysis.NewCache(f), s)
}

// once runs a single round of a strategy with a fresh analysis cache.
func once(f *ir.Func, s Strategy) Stats {
	return s.round(f, analysis.NewCache(f))
}

// TestCancelledContextRunsNoRound: the driver checks its context before
// every round, so a context that is already done leaves every strategy
// with zero rounds and the function's code untouched.
func TestCancelledContextRunsNoRound(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r3
    jump -> b3
b2:
    loadI 7 => r4
    jump -> b3
b3:
    add r1, r2 => r3
    ret r3
}
`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range map[string]Strategy{"drechsler": Drechsler, "lcm": LCM, "lospre": Lospre} {
		f := ir.MustParseFunc(src)
		gen := f.CodeGeneration()
		st := RunToFixpoint(ctx, f, analysis.NewCache(f), s)
		if st.Rounds != 0 || st.Mutated() {
			t.Errorf("%s: cancelled context ran %d rounds: %+v", name, st.Rounds, st)
		}
		if f.CodeGeneration() != gen {
			t.Errorf("%s: cancelled context mutated the function", name)
		}
		if st := fixpoint(f, s); !st.Changed() {
			t.Errorf("%s: live context found nothing on the §2 diamond: %+v", name, st)
		}
	}
}
