package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
)

// tracer records spans around calls into the program's layers and
// keeps, per span name, the span's self time: its duration minus the
// time its child spans cover.  A tracer belongs to one goroutine at a
// time; work handed to another goroutine that the owner waits for (a
// pool job) may use it, since the owner is blocked meanwhile.
type tracer struct {
	self   map[string]time.Duration
	stack  []frame
	passes map[string]*passAgg
	builds analysis.BuildCounts
	heap   []metrics.Sample
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
}

// passAgg accumulates what one pass did over every application.
type passAgg struct {
	apps, mutated int
	instrDelta    int
	builds        uint64
	allocBytes    uint64
}

func newTracer() *tracer {
	return &tracer{
		self:   map[string]time.Duration{},
		passes: map[string]*passAgg{},
		heap:   []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) begin(name string) {
	t.stack = append(t.stack, frame{name: name, start: time.Now()})
}

func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	t.self[f.name] += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// merge folds o's totals into t.
func (t *tracer) merge(o *tracer) {
	for k, v := range o.self {
		t.self[k] += v
	}
	for k, v := range o.passes {
		a := t.pass(k)
		a.apps += v.apps
		a.mutated += v.mutated
		a.instrDelta += v.instrDelta
		a.builds += v.builds
		a.allocBytes += v.allocBytes
	}
	b := o.builds
	t.builds.RPO += b.RPO
	t.builds.Dom += b.Dom
	t.builds.Loops += b.Loops
	t.builds.Liveness += b.Liveness
}

func (t *tracer) pass(name string) *passAgg {
	a := t.passes[name]
	if a == nil {
		a = &passAgg{}
		t.passes[name] = a
	}
	return a
}

func (t *tracer) heapAlloc() uint64 {
	metrics.Read(t.heap)
	return t.heap[0].Value.Uint64()
}

// optimize replays core.OptimizeWith for one configuration pass by
// pass through the public pieces — Program.Clone, core.PassByName,
// analysis.NewCache, ir.Verify — timing each.  A pass's own report of
// change is discarded: whether it mutated the function is read from
// the function's code generation, so the replay does not depend on
// what Pass.Run returns.
func (t *tracer) optimize(p *ir.Program, c config) (*ir.Program, error) {
	t.begin("ir.clone")
	out := p.Clone()
	t.end()
	names := core.PassNamesWith(c.level, c.gvn, c.pre)
	for _, f := range out.Funcs {
		ac := analysis.NewCache(f)
		pc := &core.PassContext{Ctx: context.Background(), Func: f, Analyses: ac}
		for _, name := range names {
			pass, err := core.PassByName(name)
			if err != nil {
				return nil, err
			}
			gen, instrs, builds, alloc := f.CodeGeneration(), f.InstrCount(), ac.Counts(), t.heapAlloc()
			t.begin("pass." + name)
			pass.Run(pc)
			t.end()
			a := t.pass(name)
			a.apps++
			if f.CodeGeneration() != gen {
				a.mutated++
			}
			a.instrDelta += f.InstrCount() - instrs
			a.allocBytes += t.heapAlloc() - alloc
			d := ac.Counts().Sub(builds)
			a.builds += d.Total()
			t.builds.RPO += d.RPO
			t.builds.Dom += d.Dom
			t.builds.Loops += d.Loops
			t.builds.Liveness += d.Liveness

			t.begin("ir.verify")
			err = ir.Verify(f)
			t.end()
			if err != nil {
				return nil, fmt.Errorf("%s: after pass %s: %w", f.Name, name, err)
			}
		}
	}
	return out, nil
}

// layers turns the tracer's totals into per-item per-layer metrics.
func (t *tracer) layers(items int) map[string]float64 {
	n := float64(items)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	m := map[string]float64{}
	for name, d := range t.self {
		m[name+".us"] = us(d)
	}
	for _, p := range benchPasses {
		a := t.pass(p)
		pre := "pass." + p + "."
		m[pre+"alloc_kb"] = float64(a.allocBytes) / 1024 / n
		m[pre+"instr_delta"] = float64(a.instrDelta) / n
		m[pre+"builds"] = float64(a.builds) / n
		if a.apps > 0 {
			m[pre+"mutated_frac"] = float64(a.mutated) / float64(a.apps)
		}
	}
	m["analysis.rpo_builds"] = float64(t.builds.RPO) / n
	m["analysis.dom_builds"] = float64(t.builds.Dom) / n
	m["analysis.loops_builds"] = float64(t.builds.Loops) / n
	m["analysis.liveness_builds"] = float64(t.builds.Liveness) / n
	return m
}

// runtimeCounters reads the Go runtime's cumulative allocation and GC
// counters.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runtimeLayers reports runtime.alloc_kb and runtime.gc_cycles per item
// between two runtimeCounters readings.
func runtimeLayers(m map[string]float64, items int, a0, g0, a1, g1 uint64) {
	m["runtime.alloc_kb"] = float64(a1-a0) / 1024 / float64(items)
	m["runtime.gc_cycles"] = float64(g1-g0) / float64(items)
}
