package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/minift"
)

// multiFuncSrc has several functions, so the per-function pipeline and
// the per-pass hook have more than one function to cover.
const multiFuncSrc = `
func a(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + i * n
    }
    return s
}

func b(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + (i + n) * (i + n)
    }
    return s
}

func c(x: real, n: int): real {
    var s: real = 0.0
    for i = 1 to n {
        s = s + x * x
    }
    return s
}

func driver(n: int): int {
    return a(n) + b(n)
}
`

// TestOptimizeConcurrentDistinctPrograms is the shared-mutable-state
// audit: many goroutines optimizing distinct programs at once must not
// race (the race detector enforces this under `go test -race`, which
// make check runs).
func TestOptimizeConcurrentDistinctPrograms(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := minift.Compile(multiFuncSrc)
			if err != nil {
				t.Error(err)
				return
			}
			for _, level := range Levels {
				if _, err := Optimize(prog, level); err != nil {
					t.Errorf("%s: %v", level, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestOptimizeWithCancelled: a dead context stops the optimization with
// an error wrapping the context error.
func TestOptimizeWithCancelled(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = OptimizeWith(prog, LevelDist, OptimizeOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestOptimizeWithOnPass: the per-pass hook observes every pass
// application on every function, with sane durations.
func TestOptimizeWithOnPass(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	var seq []PassInfo
	_, err = OptimizeWith(prog, LevelReassoc, OptimizeOptions{
		OnPass: func(info PassInfo) {
			if info.Duration < 0 {
				t.Errorf("negative duration for %s on %s", info.Pass, info.Func)
			}
			count[info.Pass]++
			seq = append(seq, info)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nfuncs := len(prog.Funcs)
	want := map[string]int{}
	for _, pass := range PassNames(LevelReassoc) {
		want[pass] += nfuncs // some passes (dce) run more than once per level
	}
	for pass, n := range want {
		if count[pass] != n {
			t.Errorf("pass %s observed %d times, want %d", pass, count[pass], n)
		}
	}
	// Calls arrive in pass order, and within one pass in function order.
	names := PassNames(LevelReassoc)
	if len(seq) != len(names)*nfuncs {
		t.Fatalf("observed %d calls, want %d", len(seq), len(names)*nfuncs)
	}
	for k, info := range seq {
		if p, f := names[k/nfuncs], prog.Funcs[k%nfuncs].Name; info.Pass != p || info.Func != f {
			t.Fatalf("call %d observed %s on %s, want %s on %s", k, info.Pass, info.Func, p, f)
		}
	}
}

// TestCheckedRunCtxCancelled: the checked pipeline fails cleanly —
// error wrapping the context error, no spurious miscompile diagnostics
// — when its context dies.
func TestCheckedRunCtxCancelled(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	passes, err := Passes(PassNames(LevelDist)...)
	if err != nil {
		t.Fatal(err)
	}
	_, diags, err := CheckedRun(prog, passes, OptimizeOptions{Ctx: ctx}, CheckConfig{Validate: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for _, d := range diags {
		t.Errorf("cancellation produced a diagnostic: %s", d)
	}
}

// TestCheckedRunCtxDeadline: a deadline long enough to start but too
// short to validate everything still yields a clean timeout, never a
// bogus validation failure.
func TestCheckedRunCtxDeadline(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	passes, err := Passes(PassNames(LevelDist)...)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep a few tiny budgets; at least the smallest should expire
	// mid-run, and whenever one does the failure must be the clean
	// timeout shape.
	for _, budget := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		_, diags, err := CheckedRun(prog, passes, OptimizeOptions{Ctx: ctx}, CheckConfig{Validate: true})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("budget %v: non-timeout error: %v", budget, err)
		}
		if err != nil {
			for _, d := range diags {
				t.Errorf("budget %v: timeout produced diagnostic: %s", budget, d)
			}
		}
	}
}
