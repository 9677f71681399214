// Package analysis provides a per-function cache of the standard CFG
// and dataflow analyses: reverse postorder, the dominator tree (with
// frontiers and children), the natural-loop nest, and liveness.  The
// cache is the only place they are built (eprelint's analysisbuild
// rule), so its BuildCounts are the complete count of that work.
//
// Results are memoized lazily and invalidated by the owning function's
// generation counters (ir.Func.CFGGeneration / CodeGeneration): the
// structural analyses rebuild when the CFG generation has moved on,
// liveness rebuilds when the code generation has.  The ir and cfg
// mutating helpers bump those counters automatically, so a pass that
// mutates only through them gets invalidation for free; passes that
// rewrite instruction slices in place must call ir.Func.MarkCodeMutated.
//
// A Cache is not safe for concurrent use; the pass manager creates one
// cache per function and runs that function's passes sequentially.
package analysis

import (
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// BuildCounts records how many times each analysis was (re)built
// through a Cache.  The pass manager snapshots these around each pass
// to report per-pass analysis work.
type BuildCounts struct {
	RPO      uint64
	Dom      uint64
	Loops    uint64
	Liveness uint64
}

// Sub returns c - o, field-wise.
func (c BuildCounts) Sub(o BuildCounts) BuildCounts {
	return BuildCounts{
		RPO:      c.RPO - o.RPO,
		Dom:      c.Dom - o.Dom,
		Loops:    c.Loops - o.Loops,
		Liveness: c.Liveness - o.Liveness,
	}
}

// Add returns c + o, field-wise.
func (c BuildCounts) Add(o BuildCounts) BuildCounts {
	return BuildCounts{
		RPO:      c.RPO + o.RPO,
		Dom:      c.Dom + o.Dom,
		Loops:    c.Loops + o.Loops,
		Liveness: c.Liveness + o.Liveness,
	}
}

// Total returns the sum of all fields.
func (c BuildCounts) Total() uint64 { return c.RPO + c.Dom + c.Loops + c.Liveness }

// Cache lazily memoizes analyses for one function.  Each getter checks
// the function's generation counters and rebuilds a stale result before
// returning it; callers therefore always see an up-to-date analysis and
// must not retain results across mutations they perform themselves.
type Cache struct {
	fn *ir.Func

	// Generations at which the cached results were built.
	cfgGen  uint64
	codeGen uint64

	rpo   []*ir.Block
	dom   *cfg.DomTree
	loops *cfg.LoopInfo
	live  *dataflow.Liveness

	// Reusable worklist buffers the passes borrow; see scratch.go.
	scratch scratch

	counts BuildCounts
}

// NewCache returns an empty cache for f.  Nothing is computed until a
// getter is called.
func NewCache(f *ir.Func) *Cache { return &Cache{fn: f} }

// Func returns the function this cache serves.
func (c *Cache) Func() *ir.Func { return c.fn }

// Counts returns the number of rebuilds this cache has performed, by
// analysis kind.
func (c *Cache) Counts() BuildCounts { return c.counts }

// refresh drops any results invalidated by mutations since they were
// built.  Structural analyses are keyed by the CFG generation, liveness
// by the (superset) code generation.
func (c *Cache) refresh() {
	if g := c.fn.CFGGeneration(); g != c.cfgGen {
		c.cfgGen = g
		c.rpo = nil
		c.dom = nil
		c.loops = nil
	}
	if g := c.fn.CodeGeneration(); g != c.codeGen {
		c.codeGen = g
		c.live = nil
	}
}

// RPO returns the reverse postorder of the function's reachable blocks.
// Callers must treat the slice as read-only.
func (c *Cache) RPO() []*ir.Block {
	c.refresh()
	if c.rpo == nil {
		c.rpo = cfg.ReversePostorder(c.fn)
		c.counts.RPO++
	}
	return c.rpo
}

// DomTree returns the dominator tree (with frontiers).
func (c *Cache) DomTree() *cfg.DomTree {
	c.refresh()
	if c.dom == nil {
		c.dom = cfg.BuildDomTree(c.fn, c.RPO())
		c.counts.Dom++
	}
	return c.dom
}

// Loops returns the natural-loop nest, built over the cached dominator
// tree.
func (c *Cache) Loops() *cfg.LoopInfo {
	c.refresh()
	if c.loops == nil {
		c.loops = cfg.FindLoops(c.fn, c.DomTree())
		c.counts.Loops++
	}
	return c.loops
}

// Liveness returns per-block live-in/live-out sets.
func (c *Cache) Liveness() *dataflow.Liveness {
	c.refresh()
	if c.live == nil {
		c.live = dataflow.ComputeLiveness(c.fn, c.RPO())
		c.counts.Liveness++
	}
	return c.live
}

// RemoveUnreachable deletes unreachable blocks using the cached reverse
// postorder for the reachability test, returning the number removed.
// When nothing is removed the function's generations — and therefore
// every cached analysis — stay valid.
func (c *Cache) RemoveUnreachable() int {
	return cfg.RemoveUnreachable(c.fn, c.RPO())
}
