package suite

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/reassoc"
)

// TestTable2ChecksReassociation: the reassociation Table2 measures runs
// through the pass driver, so under EPRE_CHECK=1 a miscompiling
// reassociation fails the table instead of being measured, and without
// it the same reassociation is measured unchecked.
func TestTable2ChecksReassociation(t *testing.T) {
	miscompiling := func(f *ir.Func, o reassoc.Options, ac *analysis.Cache) reassoc.Stats {
		st := reassoc.RunWith(f, o, ac)
		f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.Op == ir.OpLoadI {
				in.Imm += 1000
			}
		})
		return st
	}
	t.Setenv(core.CheckEnv, "1")
	if _, err := table2(miscompiling); err == nil || !strings.Contains(err.Error(), "reassoc") {
		t.Fatalf("checked Table2 accepted a miscompiling reassociation (err %v)", err)
	}
	t.Setenv(core.CheckEnv, "0")
	rows, err := table2(miscompiling)
	if err != nil {
		t.Fatalf("unchecked Table2: %v", err)
	}
	if len(rows) != len(All()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(All()))
	}
}
