package pre_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pre"
	"repro/internal/progen"
	"repro/internal/suite"
)

// TestKeptNamesMatchRecount: the canonical destinations a run keeps,
// patched from the blocks each round touched, equal CanonicalDsts
// recomputed over the whole function after every round — on every
// suite routine and on generated programs, as each level with a PRE
// slot hands them to it.
func TestKeptNamesMatchRecount(t *testing.T) {
	var progs []*ir.Program
	for _, r := range suite.All() {
		prog, err := r.Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for _, src := range progen.Corpus(1, 40) {
		prog, err := ir.ParseProgramString(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	ctx := context.Background()
	compared, later := 0, 0
	for _, level := range []core.Level{core.LevelPartial, core.LevelReassoc, core.LevelDist} {
		var before []core.Pass
		for _, name := range core.PassNames(level) {
			if name == core.PREDrechsler.PassName() {
				break
			}
			p, err := core.PassByName(name)
			if err != nil {
				t.Fatal(err)
			}
			before = append(before, p)
		}
		for _, prog := range progs {
			for _, f := range prog.Clone().Funcs {
				for _, p := range before {
					p.Run(&core.PassContext{Ctx: ctx, Func: f, Analyses: analysis.NewCache(f)})
				}
				pre.RunCheckingNames(f, func(round int, kept, fresh []ir.Reg) {
					compared++
					if round > 1 {
						later++
					}
					if !slices.Equal(kept, fresh) {
						t.Fatalf("%s %s round %d: kept names %v, recounted %v\n%s", level, f.Name, round, kept, fresh, f)
					}
				})
			}
		}
	}
	if later == 0 {
		t.Fatal("no run went past its first round: the corpus exercises nothing")
	}
	t.Logf("%d rounds compared, %d of them later rounds", compared, later)
}
