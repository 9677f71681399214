package suite

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pre"
)

// TestPreCompareAllRoutines is the acceptance check for the alternate
// PRE backends: every suite routine, optimized at the partial level
// with each of the three backends, must still compute its reference
// result (RunRoutineOpts validates it).  The static columns must be
// populated wherever the paper's backend found redundancy, and the
// worker fan-out must not change the table.
func TestPreCompareAllRoutines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all routines × 3 backends")
	}
	ctx := context.Background()
	rows, err := PreCompare(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(All()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(All()))
	}
	for _, r := range rows {
		for _, st := range []PreCompareStat{r.Drechsler, r.LCM, r.Lospre} {
			if st.Dyn <= 0 {
				t.Errorf("%s: non-positive dynamic count %+v", r.Name, st)
			}
		}
	}

	// Suite-wide static totals over all 89 functions, pinned so a
	// refactor of the PRE strategies cannot silently change what they
	// do.  Drechsler's Mode B first computations (Rewritten) are not
	// eliminations; with them its total is the 1322 the report showed
	// when it still counted them.  solved counts the expressions the
	// rounds solved: a round after the first solves only those the
	// previous one can have affected.
	type totals struct{ inserted, eliminated, rewritten, rounds, solved int }
	want := map[core.PREBackend]totals{
		core.PREDrechsler: {271, 1225, 97, 164, 4428},
		core.PRELCM:       {314, 1274, 0, 153, 4341},
		core.PRELospre:    {240, 1270, 78, 153, 4410},
	}
	for _, backend := range core.PREBackends {
		var got totals
		count := func(info core.PassInfo) {
			if info.Pass == backend.PassName() {
				s := info.Stats.(pre.Stats)
				got.rewritten += s.Rewritten
				got.rounds += s.Rounds
				got.solved += s.Solved
			}
		}
		for _, r := range All() {
			opts := core.OptimizeOptions{PRE: backend, OnPass: count}
			if _, err := RunRoutineOpts(ctx, r, core.LevelPartial, opts); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rows {
			got.inserted += r.stat(backend).Inserted
			got.eliminated += r.stat(backend).Eliminated
		}
		if got != want[backend] {
			t.Errorf("%s: suite totals %+v, want %+v", backend, got, want[backend])
		}
	}

	var b strings.Builder
	WritePreCompare(&b, rows)
	out := b.String()
	for _, want := range []string{"drechsler", "lcm", "lospre", "routine", rows[0].Name} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestPreCompareSerialParallelAgree: the canonical-output guarantee on
// a small slice of the suite (full agreement is implied by the row
// slice being index-addressed, but pin it anyway).
func TestPreCompareSerialParallelAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs routines twice")
	}
	ctx := context.Background()
	serial, err := PreCompare(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PreCompare(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	WritePreCompare(&a, serial)
	WritePreCompare(&b, parallel)
	if a.String() != b.String() {
		t.Error("serial and parallel precompare tables differ")
	}
}

// TestPreBackendsPreserveRoutineSemantics spot-checks that the partial
// level with a non-default backend still passes each routine's own
// result check at another level too (reassoc keeps its PRE slot).
func TestPreBackendsPreserveRoutineSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes routines at two levels")
	}
	ctx := context.Background()
	for _, r := range All()[:6] {
		for _, backend := range []core.PREBackend{core.PRELCM, core.PRELospre} {
			if _, err := RunRoutineOpts(ctx, r, core.LevelReassoc, core.OptimizeOptions{PRE: backend}); err != nil {
				t.Errorf("%s at reassoc with pre=%s: %v", r.Name, backend, err)
			}
		}
	}
}
