package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// diamond builds entry→{a,b}→exit with valid terminators.
func diamond(t *testing.T) *ir.Func {
	t.Helper()
	f := ir.NewFunc("d", 1)
	entry := f.Entry()
	a, b, exit := f.NewBlock(), f.NewBlock(), f.NewBlock()
	entry.Append(entry.Fn.NewInstr(ir.OpCBr, ir.NoReg, f.Params[0]))
	a.Append(a.Fn.NewInstr(ir.OpJump, ir.NoReg))
	b.Append(b.Fn.NewInstr(ir.OpJump, ir.NoReg))
	exit.Append(exit.Fn.NewInstr(ir.OpRet, ir.NoReg))
	ir.AddEdge(entry, a)
	ir.AddEdge(entry, b)
	ir.AddEdge(a, exit)
	ir.AddEdge(b, exit)
	return f
}

func TestCacheMemoizes(t *testing.T) {
	f := diamond(t)
	c := analysis.NewCache(f)

	rpo1 := c.RPO()
	rpo2 := c.RPO()
	if &rpo1[0] != &rpo2[0] {
		t.Errorf("RPO not memoized: distinct slices across calls")
	}
	dom1 := c.DomTree()
	if c.DomTree() != dom1 {
		t.Errorf("DomTree not memoized")
	}
	lv1 := c.Liveness()
	if c.Liveness() != lv1 {
		t.Errorf("Liveness not memoized")
	}
	if c.Loops() != c.Loops() {
		t.Errorf("Loops not memoized")
	}
	want := analysis.BuildCounts{RPO: 1, Dom: 1, Loops: 1, Liveness: 1}
	if got := c.Counts(); got != want {
		t.Errorf("Counts() = %+v, want %+v", got, want)
	}
}

func TestCacheInvalidation(t *testing.T) {
	f := diamond(t)
	c := analysis.NewCache(f)
	dom1 := c.DomTree()
	// The dominator tree is built over the cache's own reverse
	// postorder, so a fresh cache counts exactly one RPO build for it.
	if got, want := c.Counts(), (analysis.BuildCounts{RPO: 1, Dom: 1}); got != want {
		t.Errorf("Counts() after DomTree = %+v, want %+v", got, want)
	}
	lv1 := c.Liveness()

	// Instruction-level mutation: liveness rebuilds, dom tree survives.
	f.Blocks[1].Append(f.Blocks[1].Fn.NewInstr(ir.OpAdd, f.NewReg(), f.Params[0], f.Params[0]))
	if c.DomTree() != dom1 {
		t.Errorf("DomTree invalidated by instruction-level mutation")
	}
	if c.Liveness() == lv1 {
		t.Errorf("Liveness not invalidated by instruction-level mutation")
	}

	// Structural mutation: everything rebuilds.
	lv2 := c.Liveness()
	nb := f.NewBlock()
	nb.Append(nb.Fn.NewInstr(ir.OpRet, ir.NoReg))
	if c.DomTree() == dom1 {
		t.Errorf("DomTree not invalidated by structural mutation")
	}
	if c.Liveness() == lv2 {
		t.Errorf("Liveness not invalidated by structural mutation")
	}
	// The dominator tree and liveness share the cache's reverse
	// postorder: one per CFG generation, reused across the
	// instruction-level mutation.
	want := analysis.BuildCounts{RPO: 2, Dom: 2, Liveness: 3}
	if got := c.Counts(); got != want {
		t.Errorf("Counts() = %+v, want %+v", got, want)
	}
}

func TestCacheRemoveUnreachable(t *testing.T) {
	f := diamond(t)
	// An unreachable self-loop pair feeding nothing reachable.
	u1, u2 := f.NewBlock(), f.NewBlock()
	u1.Append(u1.Fn.NewInstr(ir.OpJump, ir.NoReg))
	u2.Append(u2.Fn.NewInstr(ir.OpJump, ir.NoReg))
	ir.AddEdge(u1, u2)
	ir.AddEdge(u2, u1)

	c := analysis.NewCache(f)
	genBefore := f.CFGGeneration()
	if removed := c.RemoveUnreachable(); removed != 2 {
		t.Fatalf("RemoveUnreachable() = %d, want 2", removed)
	}
	if f.CFGGeneration() == genBefore {
		t.Errorf("CFG generation not bumped by block removal")
	}
	if len(c.RPO()) != len(f.Blocks) {
		t.Errorf("stale RPO after removal: %d blocks in RPO, %d in func", len(c.RPO()), len(f.Blocks))
	}

	// Second call is a no-op and must not invalidate anything.
	dom := c.DomTree()
	genBefore = f.CFGGeneration()
	if removed := c.RemoveUnreachable(); removed != 0 {
		t.Fatalf("second RemoveUnreachable() = %d, want 0", removed)
	}
	if f.CFGGeneration() != genBefore {
		t.Errorf("no-op RemoveUnreachable bumped the CFG generation")
	}
	if c.DomTree() != dom {
		t.Errorf("no-op RemoveUnreachable invalidated the dom tree")
	}
}
