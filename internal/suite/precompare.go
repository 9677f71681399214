package suite

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/pre"
)

// PreCompareStat is one backend's effect on one routine at the
// partial level: the PRE pass's own transformation counts and the
// end-to-end dynamic operation count.
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
// Every column comes from one partial-level run per backend.  The
// static columns are the PRE pass's own pre.Stats, read from the pass
// driver's OnPass; every backend sees the identical input there — the
// routine as normalize leaves it.  The dynamic column is the whole
// run, where the downstream cleanup passes (sccp, peephole, dce,
// coalesce) have consumed the compensation copies each backend leaves
// behind.
type PreCompareRow struct {
	Name      string
	Drechsler PreCompareStat
	LCM       PreCompareStat
	Lospre    PreCompareStat
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

// preCompareRow measures one routine with every PRE backend.
func preCompareRow(ctx context.Context, r Routine) (PreCompareRow, error) {
	row := PreCompareRow{Name: r.Name}
	for _, backend := range core.PREBackends {
		st := row.stat(backend)
		prePass := backend.PassName()
		count := func(info core.PassInfo) {
			if info.Pass == prePass {
				s := info.Stats.(pre.Stats)
				st.Inserted += s.Inserted
				st.Eliminated += s.Deleted + s.Replaced
			}
		}
		n, err := RunRoutineOpts(ctx, r, core.LevelPartial, core.OptimizeOptions{PRE: backend, OnPass: count})
		if err != nil {
			return row, fmt.Errorf("%s pre=%s: %w", r.Name, backend, err)
		}
		st.Dyn = n
	}
	return row, nil
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
