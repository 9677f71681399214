package suite

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/reassoc"
)

// Table1Row holds the dynamic operation counts of one routine at the
// paper's four optimization levels, plus the derived percentage
// columns (partial vs. baseline, reassociation vs. partial,
// distribution vs. reassociation, "new" = reassoc+dist+GVN over
// partial, "total" = everything over baseline).
type Table1Row struct {
	Name     string
	Baseline int64
	Partial  int64
	Reassoc  int64
	Dist     int64
}

// Pct returns the percentage improvement of b over a (positive =
// faster), in the paper's style.
func Pct(a, b int64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * float64(a-b) / float64(a)
}

// PartialPct is the improvement of PRE over the baseline.
func (r Table1Row) PartialPct() float64 { return Pct(r.Baseline, r.Partial) }

// ReassocPct is the improvement of reassociation+GVN over PRE alone.
func (r Table1Row) ReassocPct() float64 { return Pct(r.Partial, r.Reassoc) }

// DistPct is the improvement of distribution over plain reassociation.
func (r Table1Row) DistPct() float64 { return Pct(r.Reassoc, r.Dist) }

// NewPct is the paper's "new" column: the combined contribution of
// reassociation, distribution and value numbering over partial.
func (r Table1Row) NewPct() float64 { return Pct(r.Partial, r.Dist) }

// TotalPct is the paper's "total" column: the whole set of
// optimizations over the baseline.
func (r Table1Row) TotalPct() float64 { return Pct(r.Baseline, r.Dist) }

// Table2Row holds the static instruction counts around forward
// propagation for one routine (the paper's Table 2).
type Table2Row struct {
	Name   string
	Before int
	After  int
}

// Expansion is the code growth factor.
func (r Table2Row) Expansion() float64 {
	if r.Before == 0 {
		return 1
	}
	return float64(r.After) / float64(r.Before)
}

// RunRoutine compiles, optimizes and interprets one routine at one
// level, validating the result against the reference.
func RunRoutine(r Routine, level core.Level) (int64, error) {
	return RunRoutineCtx(context.Background(), r, level)
}

// RunRoutineCtx is RunRoutine under a context: both the optimization
// and the interpretation poll it, so a deadline bounds the whole
// measurement.
func RunRoutineCtx(ctx context.Context, r Routine, level core.Level) (int64, error) {
	return RunRoutineOpts(ctx, r, level, core.OptimizeOptions{})
}

// RunRoutineOpts is RunRoutineCtx with full optimizer options — the
// hook for per-pass instrumentation (OnPass) and backend selection in
// the table harness.  The given ctx overrides opts.Ctx.
func RunRoutineOpts(ctx context.Context, r Routine, level core.Level, opts core.OptimizeOptions) (int64, error) {
	prog, err := r.Compile()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", r.Name, err)
	}
	opts.Ctx = ctx
	opt, err := core.OptimizeWith(prog, level, opts)
	if err != nil {
		return 0, fmt.Errorf("%s at %s: %w", r.Name, level, err)
	}
	m := interp.NewMachine(opt)
	m.SetContext(ctx)
	v, err := m.Call(r.Driver, r.Args...)
	if err != nil {
		return 0, fmt.Errorf("%s at %s: %w", r.Name, level, err)
	}
	if err := r.Check(v); err != nil {
		return 0, fmt.Errorf("at %s: %w", level, err)
	}
	return m.Steps, nil
}

// table1Row measures one routine at all four levels.
func table1Row(ctx context.Context, r Routine, opts core.OptimizeOptions) (Table1Row, error) {
	row := Table1Row{Name: r.Name}
	for _, level := range core.Levels {
		n, err := RunRoutineOpts(ctx, r, level, opts)
		if err != nil {
			return row, err
		}
		switch level {
		case core.LevelBaseline:
			row.Baseline = n
		case core.LevelPartial:
			row.Partial = n
		case core.LevelReassoc:
			row.Reassoc = n
		case core.LevelDist:
			row.Dist = n
		}
	}
	return row, nil
}

// Table1 measures every routine at all four levels, serially.
func Table1() ([]Table1Row, error) {
	return Table1Ctx(context.Background(), 1)
}

// Table1Ctx measures every routine at all four levels, fanning the
// routines out across up to workers goroutines (workers <= 1 is
// serial).  Each routine is an independent measurement — compile,
// optimize, interpret — so the rows, and therefore the rendered table,
// are byte-identical regardless of the worker count: results land in a
// slice indexed by routine and the final sort is the same canonical
// order either way.
func Table1Ctx(ctx context.Context, workers int) ([]Table1Row, error) {
	return Table1Opts(ctx, workers, core.OptimizeOptions{})
}

// Table1Opts is Table1Ctx with full optimizer options: an OnPass hook
// observes every pass application of the whole table run (it must be
// concurrency-safe when workers > 1), and GVN/PRE select the backends.
func Table1Opts(ctx context.Context, workers int, opts core.OptimizeOptions) ([]Table1Row, error) {
	rows, err := measureAll(workers, func(r Routine) (Table1Row, error) {
		return table1Row(ctx, r, opts)
	})
	if err != nil {
		return nil, err
	}
	// The paper presents Table 1 sorted by the "new" column, largest
	// combined contribution first; ties break by name so the order is
	// fully canonical.
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i].NewPct(), rows[j].NewPct()
		if a != b {
			return a > b
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, nil
}

// Table2 measures forward-propagation code expansion per routine: the
// reassoc pass's own reassoc.Stats, read from the pass driver's OnPass.
// With EPRE_CHECK=1 the reassociation is checked like any other pass
// and an error diagnostic fails the table.
func Table2() ([]Table2Row, error) {
	passes, err := core.Passes("reassoc")
	if err != nil {
		return nil, err
	}
	return table2(passes)
}

// table2 is Table2 measuring the given reassociation.
func table2(passes []core.Pass) ([]Table2Row, error) {
	var rows []Table2Row
	for _, r := range All() {
		prog, err := r.Compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		row := Table2Row{Name: r.Name}
		count := func(info core.PassInfo) {
			st := info.Stats.(reassoc.Stats)
			row.Before += st.BeforeProp
			row.After += st.AfterProp
		}
		if _, err := core.RunPasses(prog, passes, core.OptimizeOptions{OnPass: count}); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}

// WriteTable1 renders rows in the layout of the paper's Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-10s %12s %12s %6s %13s %6s %12s %6s %6s %6s\n",
		"routine", "baseline", "partial", "", "reassociation", "", "distribution", "", "new", "total")
	fmt.Fprintln(w, strings.Repeat("-", 102))
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %12d %5.0f%% %13d %5.0f%% %12d %5.0f%% %5.0f%% %5.0f%%\n",
			r.Name, r.Baseline, r.Partial, r.PartialPct(),
			r.Reassoc, r.ReassocPct(), r.Dist, r.DistPct(),
			r.NewPct(), r.TotalPct())
	}
}

// WriteTable2 renders rows in the layout of the paper's Table 2,
// including the totals line.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-10s %8s %8s %10s\n", "routine", "before", "after", "expansion")
	fmt.Fprintln(w, strings.Repeat("-", 40))
	var tb, ta int
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %8d %10.3f\n", r.Name, r.Before, r.After, r.Expansion())
		tb += r.Before
		ta += r.After
	}
	fmt.Fprintln(w, strings.Repeat("-", 40))
	fmt.Fprintf(w, "%-10s %8d %8d %10.3f\n", "totals", tb, ta, float64(ta)/float64(tb))
}
