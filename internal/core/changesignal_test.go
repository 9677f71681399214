package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/suite"
)

// TestChangeSignalSound: the pass driver decides that an application
// changed a function — and so re-verifies, re-checks and validates it
// — from the function's code generation alone.  That is sound only if
// no pass can change a function without moving the generation.  Every
// registered pass (check aside: it transforms nothing and reports on
// stderr) is applied alone through the driver to the suite corpus,
// raw and optimized at every distinct level × backend pipeline, and
// every function whose printed text the pass changed must have been
// reported changed.
func TestChangeSignalSound(t *testing.T) {
	routines := suite.All()
	if testing.Short() {
		routines = routines[:6]
	}
	type tally struct{ applied, moved, printed int }
	tallies := map[string]*tally{}
	var passes []core.Pass
	for _, p := range core.AllPasses() {
		if p.Name != "check" {
			passes = append(passes, p)
			tallies[p.Name] = &tally{}
		}
	}
	for _, r := range routines {
		raw, err := r.Compile()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		states := map[string]*ir.Program{"raw": raw}
		for _, l := range core.Levels {
			for _, g := range core.GVNBackends {
				for _, p := range core.PREBackends {
					name := strings.Join(core.PassNamesWith(l, g, p), " ")
					if states[name] != nil {
						continue
					}
					opts := core.OptimizeOptions{GVN: g, PRE: p}
					if states[name], err = core.OptimizeWith(raw, l, opts); err != nil {
						t.Fatalf("%s at %s/%s/%s: %v", r.Name, l, g, p, err)
					}
				}
			}
		}
		for state, prog := range states {
			for _, p := range passes {
				moved := map[string]bool{}
				record := func(info core.PassInfo) { moved[info.Func] = info.Changed }
				out, err := core.RunPasses(prog, []core.Pass{p}, core.OptimizeOptions{OnPass: record})
				if err != nil {
					t.Fatalf("%s (%s): pass %s: %v", r.Name, state, p.Name, err)
				}
				tl := tallies[p.Name]
				for i, f := range out.Funcs {
					printed := f.String() != prog.Funcs[i].String()
					tl.applied++
					if moved[f.Name] {
						tl.moved++
					}
					if printed {
						tl.printed++
						if !moved[f.Name] {
							t.Errorf("%s/%s (%s): pass %s changed the function without moving its generation",
								r.Name, f.Name, state, p.Name)
						}
					}
				}
			}
		}
	}
	for _, p := range passes {
		tl := tallies[p.Name]
		t.Logf("%-14s applied %5d  moved %5d  printed-changed %5d", p.Name, tl.applied, tl.moved, tl.printed)
	}
}
