package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/suite"
)

// config is one point of the level × backend grid the benchmark runs.
type config struct {
	level core.Level
	gvn   core.GVNBackend
	pre   core.PREBackend
}

// suiteConfigs are the 12 configurations of a suite-opt sweep:
// baseline; partial, reassociation and distribution under every PRE
// backend with AWZ value numbering; and the two reassociating levels
// with precise value numbering.
func suiteConfigs() []config {
	cs := []config{{core.LevelBaseline, core.GVNAWZ, core.PREDrechsler}}
	for _, l := range []core.Level{core.LevelPartial, core.LevelReassoc, core.LevelDist} {
		for _, p := range core.PREBackends {
			cs = append(cs, config{l, core.GVNAWZ, p})
		}
	}
	for _, l := range []core.Level{core.LevelReassoc, core.LevelDist} {
		cs = append(cs, config{l, core.GVNPrecise, core.PREDrechsler})
	}
	return cs
}

// suiteItem is one (routine, configuration) pair.
type suiteItem struct {
	routine suite.Routine
	config  config
}

func suiteItems() []suiteItem {
	var items []suiteItem
	for _, r := range suite.All() {
		for _, c := range suiteConfigs() {
			items = append(items, suiteItem{r, c})
		}
	}
	return items
}

// optimizeItem is one suite-opt item as a build job runs it: compile
// the source, optimize, print.
func optimizeItem(it suiteItem) (string, error) {
	prog, _, err := lang.Compile(it.routine.Source, "")
	if err != nil {
		return "", err
	}
	out, err := core.OptimizeWith(prog, it.config.level, core.OptimizeOptions{GVN: it.config.gvn, PRE: it.config.pre})
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// sweepOrder draws each sweep's item order, a fresh permutation per
// sweep, from the schedule seed.
func sweepOrder(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5eed)) }

// quality is the generated code's measure: the paper's dynamic
// operation counts and the static instruction count.
type quality struct {
	dynopsDist   int64 // distribution level, default backends
	dynopsAll    int64 // all 12 configurations
	staticOpsAll int64 // output InstrCount over all 12 configurations
}

// measureQuality interprets each item's optimized output, checks the
// result against the routine's reference, and sums the counts.  It
// returns the number of items whose output failed.
func measureQuality(items []suiteItem, outputs []string) (quality, int, error) {
	var q quality
	failed := 0
	for i, it := range items {
		prog, _, err := lang.Compile(outputs[i], "iloc")
		if err != nil {
			return q, 0, fmt.Errorf("%s at %s: reparse output: %w", it.routine.Name, it.config.level, err)
		}
		m := interp.NewMachine(prog)
		v, err := m.Call(it.routine.Driver, it.routine.Args...)
		if err == nil {
			err = it.routine.Check(v)
		}
		if err != nil {
			failed++
			continue
		}
		q.dynopsAll += m.Steps
		q.staticOpsAll += int64(prog.InstrCount())
		if it.config == (config{core.LevelDist, core.GVNAWZ, core.PREDrechsler}) {
			q.dynopsDist += m.Steps
		}
	}
	return q, failed, nil
}

// suiteQuality optimizes and measures the whole suite outside any
// timed window.
func suiteQuality() (quality, int, error) {
	items := suiteItems()
	outputs := make([]string, len(items))
	failed := 0
	for i, it := range items {
		out, err := optimizeItem(it)
		if err != nil {
			failed++
			continue
		}
		outputs[i] = out
	}
	q, bad, err := measureQuality(items, outputs)
	return q, failed + bad, err
}

// runSuiteOpt is the suite-opt workload: one caller optimizes the
// suite in sweeps, each item compiled, optimized and printed.
func runSuiteOpt(opts options) (*report, error) {
	rep := &report{scheduleSeed: opts.seed}
	items := suiteItems()

	// Setup: a warm-up sweep whose outputs are the reference every
	// timed output must match byte for byte.
	var refs []string
	for i := 0; i < opts.setups; i++ {
		start := time.Now()
		refs = make([]string, len(items))
		for j, it := range items {
			out, err := optimizeItem(it)
			if err != nil {
				return nil, fmt.Errorf("%s at %s: %w", it.routine.Name, it.config.level, err)
			}
			refs[j] = out
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
	}

	order := sweepOrder(opts.seed)
	a0, g0 := runtimeCounters()
	start := time.Now()
	deadline := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for _, i := range order.Perm(len(items)) {
			t0 := time.Now()
			out, err := optimizeItem(items[i])
			rep.latencies = append(rep.latencies, float64(time.Since(t0).Nanoseconds())/1e6)
			rep.items++
			if err != nil || out != refs[i] {
				rep.failed++
			}
			if !time.Now().Before(deadline) {
				break
			}
		}
	}
	rep.wall = time.Since(start).Seconds()
	a1, g1 := runtimeCounters()
	rep.attempted = rep.items

	q, bad, err := measureQuality(items, refs)
	if err != nil {
		return nil, err
	}
	rep.quality = q
	rep.failed += bad

	if opts.trace {
		rep.layers = map[string]float64{}
		if err := traceSuiteOpt(rep, items, refs, opts); err != nil {
			return nil, err
		}
		runtimeLayers(rep.layers, rep.items, a0, g0, a1, g1)
	}
	return rep, nil
}

// traceSuiteOpt replays whole sweeps with spans around every layer for
// at least opts.seconds, failing any item whose replayed output is not
// byte-identical to core.OptimizeWith's.
func traceSuiteOpt(rep *report, items []suiteItem, refs []string, opts options) error {
	t := newTracer()
	order := sweepOrder(opts.seed)
	start := time.Now()
	deadline := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	for rep.tracedItems == 0 || time.Now().Before(deadline) {
		for _, i := range order.Perm(len(items)) {
			it := items[i]
			t.begin("lang.compile")
			prog, _, err := lang.Compile(it.routine.Source, "")
			t.end()
			var out string
			if err == nil {
				opt, oerr := t.optimize(prog, it.config)
				err = oerr
				if err == nil {
					t.begin("ir.print")
					out = opt.String()
					t.end()
				}
			}
			rep.tracedItems++
			if err != nil || out != refs[i] {
				return fmt.Errorf("traced replay of %s at %v differs from core.OptimizeWith (err %v)", it.routine.Name, it.config, err)
			}
		}
	}
	rep.tracedWall = time.Since(start).Seconds()
	for k, v := range t.layers(rep.tracedItems) {
		rep.layers[k] = v
	}
	return nil
}
