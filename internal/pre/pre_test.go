package pre

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/coalesce"
	"repro/internal/dataflow"
	"repro/internal/dce"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/progen"
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
	dce.Run(f, analysis.NewCache(f))
	coalesce.Run(f, analysis.NewCache(f))
	cfg.RemoveEmptyBlocks(f)
	dce.Run(f, analysis.NewCache(f))
}

// fixpoint runs a strategy to its fixpoint with a fresh analysis cache.
func fixpoint(f *ir.Func, s Strategy) Stats {
	return RunToFixpoint(context.Background(), f, analysis.NewCache(f), s)
}

// once runs a single round of a strategy with a fresh analysis cache.
func once(f *ir.Func, s Strategy) Stats {
	p := &driver{f: f, ac: analysis.NewCache(f), s: s}
	defer p.release()
	st, _ := p.round()
	return st
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
		if st.Rounds != 0 {
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

// TestKeptUniverseMatchesRebuild: the universe a run numbers once and
// refreshes only in the blocks a round changed must hold, after every
// round, the local properties a universe built afresh would compute,
// for every strategy on generated programs.
func TestKeptUniverseMatchesRebuild(t *testing.T) {
	compared := 0
	for _, src := range progen.Corpus(100, 30) {
		for name, s := range map[string]Strategy{"drechsler": Drechsler, "lcm": LCM, "lospre": Lospre} {
			prog, err := ir.ParseProgramString(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range prog.Funcs {
				p := &driver{f: f, ac: analysis.NewCache(f), s: s}
				for round := 1; ; round++ {
					st, ok := p.round()
					if !ok || !st.Changed() {
						break
					}
					fresh := dataflow.BuildUniverse(f, nil)
					compared++
					for e, k := range fresh.Keys {
						kept, found := p.u.Lookup(k)
						if !found {
							t.Fatalf("%s %s round %d: %s missing from the kept universe", name, f.Name, round, k)
						}
						for _, b := range f.Blocks {
							for _, prop := range []struct {
								what        string
								fresh, kept dataflow.BitMatrix
							}{
								{"TRANSP", fresh.Transp, p.u.Transp},
								{"ANTLOC", fresh.AntLoc, p.u.AntLoc},
								{"COMP", fresh.Comp, p.u.Comp},
							} {
								if prop.fresh.Row(b.ID).Has(e) != prop.kept.Row(b.ID).Has(kept) {
									t.Fatalf("%s %s round %d: %s of %s in %s differs from a rebuild\n%s", name, f.Name, round, prop.what, k, b.Name, f)
								}
							}
							if fresh.Occurs(b, e) != p.u.Occurs(b, kept) {
								t.Fatalf("%s %s round %d: occurrence of %s in %s differs from a rebuild\n%s", name, f.Name, round, k, b.Name, f)
							}
						}
					}
				}
				p.release()
			}
		}
	}
	if compared == 0 {
		t.Fatal("no round changed anything: the corpus exercises nothing")
	}
	t.Logf("%d rounds compared", compared)
}

// TestCountsRecountLostDestination: when every occurrence computing
// into an expression's kept destination is gone but others remain, the
// counts find the destination the rest share.  Here add r1, r2 computes
// into r5 in b1 and into r6 in b2; once b1's occurrence is deleted, r6
// is canonical.
func TestCountsRecountLostDestination(t *testing.T) {
	f := ir.MustParseFunc(`
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r5
    ret r5
b2:
    add r1, r2 => r6
    ret r6
}
`)
	ac := analysis.NewCache(f)
	u := dataflow.BuildUniverse(f, nil)
	c := newCanonCounts(u, ac)
	defer c.release(ac)
	for _, b := range f.Blocks {
		c.count(b)
	}
	b1 := f.Blocks[1]
	c.forget(b1)
	b1.RemoveAt(0)
	b1.Terminator().Args[0] = 1
	u.Refresh([]*ir.Block{b1})
	c.count(b1)

	kept := make([]ir.Reg, u.NumExprs())
	c.names(kept)
	fresh := CanonicalDsts(f, u, ac)
	defer ac.ReturnRegs(fresh)
	e, _ := u.Lookup(dataflow.ExprKey{Op: ir.OpAdd, A: 1, B: 2})
	if kept[e] != 6 || fresh[e] != 6 {
		t.Fatalf("canonical destination of add r1, r2: kept %s, recounted %s, want r6", kept[e], fresh[e])
	}
}
