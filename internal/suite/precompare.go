package suite

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pre"
)

// PreCompareStat is one backend's effect on one routine: the static
// transformation counts at the pipeline's PRE position and the
// end-to-end dynamic operation count at the partial level.
type PreCompareStat struct {
	// Inserted counts computations the backend inserted (on edges for
	// drechsler, at block boundaries for lcm/lospre), summed over
	// functions and fixpoint rounds.
	Inserted int
	// Eliminated counts original computations the backend removed
	// outright (Mode A deletions) or turned into copies from the
	// temporary: Stats.Deleted+Stats.Replaced.
	Eliminated int
	// Dyn is the routine's dynamic operation count optimized at the
	// partial level with this backend, validated against the reference
	// result.
	Dyn int64
}

// PreCompareRow compares the three PRE backends on one suite routine.
//
// The static columns measure each backend on the identical input — the
// routine normalized exactly as the partial pipeline would normalize it
// before its PRE slot — so insertion/elimination counts are directly
// comparable.  The dynamic columns then measure the full partial
// pipeline per backend, where the downstream cleanup passes (sccp,
// peephole, dce, coalesce) have consumed the compensation copies each
// backend leaves behind.
type PreCompareRow struct {
	Name      string
	Drechsler PreCompareStat
	LCM       PreCompareStat
	Lospre    PreCompareStat
}

// preStrategy maps each PRE backend to its placement strategy.
var preStrategy = map[core.PREBackend]pre.Strategy{
	core.PREDrechsler: pre.Drechsler,
	core.PRELCM:       pre.LCM,
	core.PRELospre:    pre.Lospre,
}

// stat returns the row's entry for a backend.
func (r *PreCompareRow) stat(b core.PREBackend) *PreCompareStat {
	switch b {
	case core.PRELCM:
		return &r.LCM
	case core.PRELospre:
		return &r.Lospre
	}
	return &r.Drechsler
}

// preCompareRow measures one routine.  Each backend recompiles the
// routine so all three see the identical input form.
func preCompareRow(ctx context.Context, r Routine) (PreCompareRow, error) {
	row := PreCompareRow{Name: r.Name}
	for _, backend := range core.PREBackends {
		s, err := preStatic(ctx, r, backend)
		if err != nil {
			return row, err
		}
		st := row.stat(backend)
		st.Inserted = s.Inserted
		st.Eliminated = s.Deleted + s.Replaced

		// End-to-end effect: the whole partial pipeline with this
		// backend in the PRE slot, checked against the reference.
		n, err := RunRoutineOpts(ctx, r, core.LevelPartial, core.OptimizeOptions{PRE: backend})
		if err != nil {
			return row, fmt.Errorf("%s pre=%s: %w", r.Name, backend, err)
		}
		st.Dyn = n
	}
	return row, nil
}

// preStatic is one backend's static effect on a routine at the PRE
// position: the program is normalized first through the pass driver,
// exactly as the partial pipeline does before its PRE slot, then every
// function is run to the PRE fixpoint.  The counts are summed over
// functions.
func preStatic(ctx context.Context, r Routine, backend core.PREBackend) (pre.Stats, error) {
	var sum pre.Stats
	normalize, err := core.Passes("normalize")
	if err != nil {
		return sum, err
	}
	prog, err := r.Compile()
	if err != nil {
		return sum, fmt.Errorf("%s: %w", r.Name, err)
	}
	prog, err = core.RunPasses(prog, normalize, core.OptimizeOptions{Ctx: ctx})
	if err != nil {
		return sum, fmt.Errorf("%s: %w", r.Name, err)
	}
	for _, f := range prog.Funcs {
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		s := pre.RunToFixpoint(ctx, f, analysis.NewCache(f), preStrategy[backend])
		sum.Inserted += s.Inserted
		sum.Deleted += s.Deleted
		sum.Replaced += s.Replaced
		sum.Rewritten += s.Rewritten
		sum.Rounds += s.Rounds
		sum.Solved += s.Solved
	}
	return sum, nil
}

// PreCompare measures every suite routine with all three PRE backends,
// fanning out across up to workers goroutines (workers <= 1 is
// serial).  Rows sort by name, so the table is canonical for any
// worker count.
func PreCompare(ctx context.Context, workers int) ([]PreCompareRow, error) {
	rows, err := measureAll(workers, func(r Routine) (PreCompareRow, error) {
		return preCompareRow(ctx, r)
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}

// WritePreCompare renders the comparison as an aligned text table: one
// ins/elim/dyn column group per backend.
func WritePreCompare(w io.Writer, rows []PreCompareRow) {
	fmt.Fprintf(w, "%-12s %23s  %23s  %23s\n", "",
		"drechsler", "lcm", "lospre")
	fmt.Fprintf(w, "%-12s %5s %5s %11s  %5s %5s %11s  %5s %5s %11s\n",
		"routine", "ins", "elim", "dyn", "ins", "elim", "dyn", "ins", "elim", "dyn")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %5d %5d %11d  %5d %5d %11d  %5d %5d %11d\n",
			r.Name,
			r.Drechsler.Inserted, r.Drechsler.Eliminated, r.Drechsler.Dyn,
			r.LCM.Inserted, r.LCM.Eliminated, r.LCM.Dyn,
			r.Lospre.Inserted, r.Lospre.Eliminated, r.Lospre.Dyn)
	}
}
