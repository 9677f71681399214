package cfg_test

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// domTree builds f's dominator tree over a fresh reverse postorder.
func domTree(f *ir.Func) *cfg.DomTree {
	return cfg.BuildDomTree(f, cfg.ReversePostorder(f))
}

// buildCFG constructs a function with the given edge list over n
// blocks (block 0 is entry).  Every block gets a structurally valid
// terminator for its out-degree.
func buildCFG(t *testing.T, n int, edges [][2]int) *ir.Func {
	t.Helper()
	f := ir.NewFunc("g", 1)
	blocks := []*ir.Block{f.Entry()}
	for i := 1; i < n; i++ {
		blocks = append(blocks, f.NewBlock())
	}
	out := make([][]int, n)
	for _, e := range edges {
		out[e[0]] = append(out[e[0]], e[1])
	}
	for i, b := range blocks {
		switch len(out[i]) {
		case 0:
			b.Append(b.Fn.NewInstr(ir.OpRet, ir.NoReg))
		case 1:
			b.Append(b.Fn.NewInstr(ir.OpJump, ir.NoReg))
		case 2:
			b.Append(b.Fn.NewInstr(ir.OpCBr, ir.NoReg, f.Params[0]))
		default:
			t.Fatalf("block %d has out-degree %d", i, len(out[i]))
		}
		for _, s := range out[i] {
			ir.AddEdge(b, blocks[s])
		}
	}
	return f
}

// bruteDominators computes dominators by the definition: remove b,
// see what becomes unreachable.
func bruteDominators(f *ir.Func) map[int]map[int]bool {
	reachAvoiding := func(avoid *ir.Block) map[int]bool {
		seen := map[int]bool{}
		var walk func(b *ir.Block)
		walk = func(b *ir.Block) {
			if b == avoid || seen[b.ID] {
				return
			}
			seen[b.ID] = true
			for _, s := range b.Succs {
				walk(s)
			}
		}
		walk(f.Entry())
		return seen
	}
	all := reachAvoiding(nil)
	dom := map[int]map[int]bool{}
	for _, d := range f.Blocks {
		if !all[d.ID] {
			continue
		}
		reach := reachAvoiding(d)
		dom[d.ID] = map[int]bool{}
		for _, b := range f.Blocks {
			if all[b.ID] && (!reach[b.ID] || b == d) {
				dom[d.ID][b.ID] = true // d dominates b
			}
		}
	}
	return dom
}

func TestDominatorsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		var edges [][2]int
		outdeg := make([]int, n)
		// Spanning structure: every block i>0 gets an edge from some
		// earlier block (keeps most blocks reachable), plus extras.
		for i := 1; i < n; i++ {
			from := rng.Intn(i)
			if outdeg[from] < 2 {
				edges = append(edges, [2]int{from, i})
				outdeg[from]++
			}
		}
		for k := 0; k < n; k++ {
			from := rng.Intn(n)
			to := rng.Intn(n)
			if to == 0 || outdeg[from] >= 2 {
				continue
			}
			edges = append(edges, [2]int{from, to})
			outdeg[from]++
		}
		f := buildCFG(t, n, edges)
		cfg.RemoveUnreachable(f, cfg.ReversePostorder(f))
		dom := domTree(f)
		brute := bruteDominators(f)
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				want := brute[a.ID][b.ID]
				got := dom.Dominates(a, b)
				if got != want {
					t.Fatalf("trial %d: Dominates(%s,%s) = %v, want %v\n%s",
						trial, a.Name, b.Name, got, want, f)
				}
			}
		}
		// IDom must be the unique closest strict dominator.
		for _, b := range f.Blocks {
			id := dom.IDom(b)
			if b == f.Entry() {
				if id != nil {
					t.Fatalf("entry has idom %v", id)
				}
				continue
			}
			if id == nil {
				t.Fatalf("%s has no idom", b.Name)
			}
			if !brute[id.ID][b.ID] {
				t.Fatalf("idom(%s)=%s does not dominate", b.Name, id.Name)
			}
			// Every other strict dominator of b dominates the idom.
			for d, doms := range brute {
				if doms[b.ID] && d != b.ID && d != id.ID {
					if !brute[d][id.ID] {
						t.Fatalf("dominator %d of %s does not dominate idom %s", d, b.Name, id.Name)
					}
				}
			}
		}
	}
}

func TestDominanceFrontierProperty(t *testing.T) {
	// DF(b) = blocks d such that b dominates a predecessor of d but
	// does not strictly dominate d.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(9)
		var edges [][2]int
		outdeg := make([]int, n)
		for i := 1; i < n; i++ {
			from := rng.Intn(i)
			if outdeg[from] < 2 {
				edges = append(edges, [2]int{from, i})
				outdeg[from]++
			}
		}
		for k := 0; k < n; k++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if to != 0 && outdeg[from] < 2 {
				edges = append(edges, [2]int{from, to})
				outdeg[from]++
			}
		}
		f := buildCFG(t, n, edges)
		cfg.RemoveUnreachable(f, cfg.ReversePostorder(f))
		dom := domTree(f)
		for _, b := range f.Blocks {
			want := map[int]bool{}
			for _, d := range f.Blocks {
				inFrontier := false
				for _, p := range d.Preds {
					if dom.Dominates(b, p) && !(dom.Dominates(b, d) && b != d) {
						inFrontier = true
					}
				}
				if inFrontier {
					want[d.ID] = true
				}
			}
			got := map[int]bool{}
			for _, d := range dom.Frontier(b) {
				got[d.ID] = true
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("trial %d: DF(%s) missing b%d\n%s", trial, b.Name, id, f)
				}
			}
			for id := range got {
				if !want[id] {
					t.Fatalf("trial %d: DF(%s) has spurious b%d\n%s", trial, b.Name, id, f)
				}
			}
		}
	}
}

// TestReversePostorder: the positions in reverse postorder are the
// block ranks of the paper's §3.1 (counted from 0 here; only the order
// matters).  On a diamond the entry ranks first, both arms rank above
// it and the join above both arms; an unreachable block gets no rank.
func TestReversePostorder(t *testing.T) {
	f := buildCFG(t, 5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}) // block 4 unreachable
	rpo := cfg.ReversePostorder(f)
	if len(rpo) != 4 {
		t.Fatalf("rpo covers %d blocks, want 4", len(rpo))
	}
	pos := map[int]int{}
	for i, b := range rpo {
		pos[b.ID] = i
	}
	if pos[0] != 0 {
		t.Error("entry not first")
	}
	if !(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Errorf("rpo order wrong: %v", pos)
	}
	if _, ok := pos[4]; ok {
		t.Error("unreachable block ranked")
	}
}

func TestLoops(t *testing.T) {
	// Nested loops: 0 → 1(outer header) → 2(inner header) → 3 → 2, 3 → 1... build:
	// 0→1, 1→2, 2→3, 3→2 (inner back), 3→4, 4→1 (outer back), 1→5 exit? keep simple:
	f := buildCFG(t, 6, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 1}, {4, 5},
	})
	li := cfg.FindLoops(f, domTree(f))
	if len(li.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(li.Loops))
	}
	depth := map[int]int{}
	for _, b := range f.Blocks {
		depth[b.ID] = li.Depth(b)
	}
	if depth[0] != 0 || depth[5] != 0 {
		t.Errorf("entry/exit depth: %v", depth)
	}
	if depth[1] != 1 || depth[4] != 1 {
		t.Errorf("outer loop depth: %v", depth)
	}
	if depth[2] != 2 || depth[3] != 2 {
		t.Errorf("inner loop depth: %v", depth)
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// 0 →(crit) 2; 0→1→2: edge 0→2 is critical (0 has 2 succs, 2 has 2 preds).
	f := buildCFG(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	n := cfg.SplitCriticalEdges(f)
	if n != 1 {
		t.Fatalf("split %d edges, want 1", n)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if cfg.IsCriticalEdge(b, s) {
				t.Fatalf("critical edge %s→%s remains", b.Name, s.Name)
			}
		}
	}
}

func TestSplitEdgePreservesPhiSlots(t *testing.T) {
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	join := f.Blocks[3]
	phi := f.NewInstr(ir.OpPhi, f.NewReg(), f.Params[0], f.Params[0])
	join.InsertAt(0, phi)
	pred := f.Blocks[1]
	slot := join.PredIndex(pred)
	mid := cfg.SplitEdge(pred, join)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if join.PredIndex(mid) != slot {
		t.Errorf("φ slot moved: was %d, mid at %d", slot, join.PredIndex(mid))
	}
	if len(phi.Args) != 2 {
		t.Errorf("φ operand count changed: %d", len(phi.Args))
	}
}

func TestRemoveEmptyBlocks(t *testing.T) {
	// 0 → 1(empty jump) → 2.
	f := buildCFG(t, 3, [][2]int{{0, 1}, {1, 2}})
	removed := cfg.RemoveEmptyBlocks(f)
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 2 {
		t.Errorf("%d blocks remain", len(f.Blocks))
	}
}

func TestMergeStraightLine(t *testing.T) {
	f := buildCFG(t, 3, [][2]int{{0, 1}, {1, 2}})
	f.Blocks[1].InsertAt(0, f.Blocks[1].Fn.NewLoadI(f.NewReg(), 7)) // non-empty, so not "empty block"
	f.Blocks[2].InsertAt(0, f.Blocks[2].Fn.NewLoadI(f.NewReg(), 8))
	merged := cfg.MergeStraightLine(f)
	if merged != 2 {
		t.Fatalf("merged %d, want 2", merged)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 1 {
		t.Errorf("%d blocks remain, want 1", len(f.Blocks))
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := buildCFG(t, 4, [][2]int{{0, 1}, {2, 3}, {3, 1}}) // 2,3 unreachable
	n := cfg.RemoveUnreachable(f, cfg.ReversePostorder(f))
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestRPONumbers: the block ranks of §3.1, read as each block's
// position in reverse postorder, rank the diamond's entry 0, both arms
// above it and the join above both arms.
func TestRPONumbers(t *testing.T) {
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	nums := make([]int, len(f.Blocks))
	for i, b := range cfg.ReversePostorder(f) {
		nums[b.ID] = i
	}
	if nums[0] != 0 {
		t.Errorf("entry rank %d, want 0", nums[0])
	}
	if !(nums[1] > 0 && nums[2] > 0 && nums[3] > nums[1] && nums[3] > nums[2]) {
		t.Errorf("rpo numbers %v", nums)
	}
}

func TestDomPreorder(t *testing.T) {
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	dom := domTree(f)
	order := dom.Preorder()
	if len(order) != 4 || order[0] != f.Entry() {
		t.Errorf("preorder %v", order)
	}
	// A parent appears before its dominated children.
	pos := map[*ir.Block]int{}
	for i, b := range order {
		pos[b] = i
	}
	for _, b := range f.Blocks {
		if id := dom.IDom(b); id != nil && pos[id] >= pos[b] {
			t.Errorf("idom of %s after it in preorder", b.Name)
		}
	}
}
