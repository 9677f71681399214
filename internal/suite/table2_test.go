package suite

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// TestTable2ChecksReassociation: the reassociation Table2 measures runs
// through the pass driver, so under EPRE_CHECK=1 a miscompiling
// reassociation fails the table instead of being measured, and without
// it the same reassociation is measured unchecked.
func TestTable2ChecksReassociation(t *testing.T) {
	reassoc, err := core.PassByName("reassoc")
	if err != nil {
		t.Fatal(err)
	}
	miscompiling := core.Pass{Name: reassoc.Name, Run: func(pc *core.PassContext) any {
		st := reassoc.Run(pc)
		pc.Func.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.Op == ir.OpLoadI {
				in.Imm += 1000
			}
		})
		pc.Func.MarkCodeMutated()
		return st
	}}
	t.Setenv(core.CheckEnv, "1")
	if _, err := table2([]core.Pass{miscompiling}); err == nil || !strings.Contains(err.Error(), "reassoc") {
		t.Fatalf("checked Table2 accepted a miscompiling reassociation (err %v)", err)
	}
	t.Setenv(core.CheckEnv, "0")
	rows, err := table2([]core.Pass{miscompiling})
	if err != nil {
		t.Fatalf("unchecked Table2: %v", err)
	}
	if len(rows) != len(All()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(All()))
	}
}

// TestTable2Totals pins what Table 2 measures: the suite-wide static
// instruction counts before and after forward propagation, as the
// reassoc pass reports them to the driver.
func TestTable2Totals(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	var before, after int
	for _, r := range rows {
		before += r.Before
		after += r.After
	}
	if before != 5422 || after != 6893 {
		t.Errorf("Table 2 totals before %d, after %d; want 5422, 6893", before, after)
	}
}
