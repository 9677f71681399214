package suite

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gvn"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// GVNCompareRow reports, for one suite routine, how the precise
// iterative value-numbering backend compares against the paper's AWZ
// partitioning on identical SSA input, plus the end-to-end effect on
// the dynamic operation count at the distribution level.
//
// The partitions are compared at two points:
//
//   - Minimal SSA (no pruning, no copy folding): the analysis-strength
//     comparison.  Here the precise backend's φ-folding and copy
//     transparency prove congruences AWZ structurally cannot — AWZ
//     keys a φ or copy by its operator, so φ(x,x) is never congruent
//     to x.  The Briggs pipeline compensates by having the SSA
//     *constructor* prune trivial φs and fold copies before AWZ runs;
//     the precise backend proves the same facts analytically.
//
//   - The pipeline's actual GVN input (post-reassociation, pruned SSA
//     with copies folded): the end-to-end comparison.  MergedPruned
//     counts congruences the precise backend still adds after the
//     constructor's normalization has done its work.
type GVNCompareRow struct {
	Name    string
	Values  int // minimal-SSA values partitioned (summed over functions)
	AWZ     int // congruence classes found by the AWZ backend
	Precise int // value-expression classes found by the precise backend
	// Merged is AWZ − Precise on minimal SSA: congruences the precise
	// backend proves that AWZ cannot (φ folding, copy transparency,
	// op-through-φ composition).  Zero means the partitions coincide.
	Merged int
	// MergedPruned is the same delta on the pipeline's pruned,
	// copy-folded, reassociated input.
	MergedPruned int
	// Monotone reports the backend-ordering invariant at both
	// comparison points: every pair of values AWZ proves congruent is
	// also congruent under the precise backend (each AWZ class lands
	// inside a single precise class).
	Monotone bool
	// DynAWZ and DynPrecise are the dynamic operation counts of the
	// routine optimized at the distribution level with each backend;
	// both runs are checked against the routine's expected result.
	DynAWZ     int64
	DynPrecise int64
}

// partitionDelta is one function's AWZ-vs-precise comparison on a
// single SSA form.
type partitionDelta struct {
	values, awz, precise int
	monotone             bool
}

// comparePartitions builds the requested SSA form of f in place and
// partitions it with both backends.  The caller must pass a function
// not yet in SSA form (the builder's contract).
func comparePartitions(f *ir.Func, build ssa.BuildOptions) partitionDelta {
	ac := analysis.NewCache(f)
	ssa.Build(f, build, ac)
	values, awz := gvn.AWZClasses(f)
	_, precise := gvn.PreciseClasses(f, ac.RPO())
	return partitionDelta{
		values:   len(values),
		awz:      classCount(values, awz),
		precise:  classCount(values, precise),
		monotone: monotone(values, awz, precise),
	}
}

// classCount returns the number of distinct class ids among values.
func classCount(values []ir.Reg, class []uint32) int {
	seen := make(map[uint32]struct{}, len(values))
	for _, v := range values {
		seen[class[v]] = struct{}{}
	}
	return len(seen)
}

// monotone reports whether every AWZ congruence class maps into a
// single precise class — the "precise proves at least everything AWZ
// proves" ordering.  values must be the register list both partitions
// were computed over.
func monotone(values []ir.Reg, awz, precise []uint32) bool {
	to := make(map[uint32]uint32, len(values))
	for _, v := range values {
		p, ok := to[awz[v]]
		if !ok {
			to[awz[v]] = precise[v]
		} else if p != precise[v] {
			return false
		}
	}
	return true
}

// gvnCompareRow measures one routine.  Each comparison compiles the
// routine afresh so both backends always see the identical input form.
func gvnCompareRow(ctx context.Context, r Routine) (GVNCompareRow, error) {
	row := GVNCompareRow{Name: r.Name, Monotone: true}

	// Analysis-strength comparison on minimal SSA.
	prog, err := r.Compile()
	if err != nil {
		return row, fmt.Errorf("%s: %w", r.Name, err)
	}
	for _, f := range prog.Funcs {
		if err := ctx.Err(); err != nil {
			return row, err
		}
		d := comparePartitions(f, ssa.BuildOptions{})
		row.Values += d.values
		row.AWZ += d.awz
		row.Precise += d.precise
		if !d.monotone {
			row.Monotone = false
		}
	}
	row.Merged = row.AWZ - row.Precise

	// End-to-end comparison at the pipeline's GVN position: after
	// global reassociation, on pruned SSA with copies folded.
	prog, err = r.Compile()
	if err != nil {
		return row, fmt.Errorf("%s: %w", r.Name, err)
	}
	reassocPass, err := core.Passes("reassoc")
	if err != nil {
		return row, err
	}
	prog, err = core.RunPasses(prog, reassocPass, core.OptimizeOptions{Ctx: ctx})
	if err != nil {
		return row, fmt.Errorf("%s: %w", r.Name, err)
	}
	prunedAWZ, prunedPrecise := 0, 0
	for _, f := range prog.Funcs {
		if err := ctx.Err(); err != nil {
			return row, err
		}
		d := comparePartitions(f, ssa.BuildOptions{Prune: true, FoldCopies: true})
		prunedAWZ += d.awz
		prunedPrecise += d.precise
		if !d.monotone {
			row.Monotone = false
		}
	}
	row.MergedPruned = prunedAWZ - prunedPrecise

	for _, backend := range core.GVNBackends {
		n, err := RunRoutineOpts(ctx, r, core.LevelDist, core.OptimizeOptions{GVN: backend})
		if err != nil {
			return row, fmt.Errorf("%s gvn=%s: %w", r.Name, backend, err)
		}
		if backend == core.GVNPrecise {
			row.DynPrecise = n
		} else {
			row.DynAWZ = n
		}
	}
	return row, nil
}

// GVNCompare measures every suite routine, fanning out across up to
// workers goroutines (workers <= 1 is serial).  Rows sort by Merged
// descending — routines where the precise backend proves the most
// extra congruences first — with ties broken by name, so the table is
// canonical for any worker count.
func GVNCompare(ctx context.Context, workers int) ([]GVNCompareRow, error) {
	rows, err := measureAll(workers, func(r Routine) (GVNCompareRow, error) {
		return gvnCompareRow(ctx, r)
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Merged != rows[j].Merged {
			return rows[i].Merged > rows[j].Merged
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, nil
}

// WriteGVNCompare renders the comparison as an aligned text table.
func WriteGVNCompare(w io.Writer, rows []GVNCompareRow) {
	fmt.Fprintf(w, "%-12s %7s %7s %8s %7s %7s %9s %10s %12s\n",
		"routine", "values", "awz", "precise", "merged", "pruned", "monotone", "dyn(awz)", "dyn(precise)")
	for _, r := range rows {
		mono := "yes"
		if !r.Monotone {
			mono = "NO"
		}
		fmt.Fprintf(w, "%-12s %7d %7d %8d %7d %7d %9s %10d %12d\n",
			r.Name, r.Values, r.AWZ, r.Precise, r.Merged, r.MergedPruned, mono, r.DynAWZ, r.DynPrecise)
	}
}
