package pre

// Budgeted max-flow / min-cut on small per-expression placement
// graphs.  The solver is Dinic's algorithm with one twist: every BFS
// and DFS step debits a work budget sized linearly in the graph
// (workFactor·(V+E)).  On the structured, mostly series-parallel CFGs
// the linear-time lospre formulation assumes, the number of blocking-
// flow phases is a small constant, so the budget never trips; on
// adversarial graphs it trips and the caller falls back to the
// conservative no-motion placement instead of paying the general
// O(V²E) worst case.

// inf is the forced-label capacity.  It is large enough that no finite
// cut can reach it (total finite capacity is bounded by blocks×maxFreq
// ≪ 2⁶⁰) and small enough that summing a few cannot overflow int64.
const inf = int64(1) << 60

// workFactor scales the per-solve budget: workFactor·(V+E) elementary
// steps.  Dinic needs one BFS plus one blocking-flow DFS per phase, so
// this allows roughly workFactor/4 phases — far more than structured
// CFGs ever need, far less than the quadratic worst case.
const workFactor = 64

// mincut is a flow network over nodes 0..nodes-1.  Arcs are stored in
// pairs: arc i and i^1 are each other's reverses, so the residual of
// pushing on i is credited to i^1.
type mincut struct {
	nodes int
	to    []int32   // arc target
	cap   []int64   // residual capacity
	adj   [][]int32 // per-node arc indices, in insertion order
	// Dinic state, reused across solves.
	level []int32
	iter  []int32
	queue []int32
}

// newMincut returns a network with the given node count.
func newMincut(nodes int) *mincut {
	return &mincut{
		nodes: nodes,
		adj:   make([][]int32, nodes),
		level: make([]int32, nodes),
		iter:  make([]int32, nodes),
		queue: make([]int32, 0, nodes),
	}
}

// reset empties the arc set, keeping node count and backing arrays.
func (g *mincut) reset() {
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
}

// addEdge adds a directed arc from → to with the given capacity (and
// its zero-capacity reverse).
func (g *mincut) addEdge(from, to int, c int64) {
	g.adj[from] = append(g.adj[from], int32(len(g.to)))
	g.to = append(g.to, int32(to))
	g.cap = append(g.cap, c)
	g.adj[to] = append(g.adj[to], int32(len(g.to)))
	g.to = append(g.to, int32(from))
	g.cap = append(g.cap, 0)
}

// bfs builds the level graph; reports whether t is reachable.  Each
// arc examination debits the budget.
func (g *mincut) bfs(s, t int, budget *int64) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.queue = g.queue[:0]
	g.level[s] = 0
	g.queue = append(g.queue, int32(s))
	for qi := 0; qi < len(g.queue); qi++ {
		v := g.queue[qi]
		for _, ai := range g.adj[v] {
			*budget--
			if *budget < 0 {
				return false
			}
			if g.cap[ai] > 0 && g.level[g.to[ai]] < 0 {
				g.level[g.to[ai]] = g.level[v] + 1
				g.queue = append(g.queue, g.to[ai])
			}
		}
	}
	return g.level[t] >= 0
}

// dfs pushes a blocking augmenting path of at most limit flow.
func (g *mincut) dfs(v, t int, limit int64, budget *int64) int64 {
	if v == t {
		return limit
	}
	for ; g.iter[v] < int32(len(g.adj[v])); g.iter[v]++ {
		*budget--
		if *budget < 0 {
			return 0
		}
		ai := g.adj[v][g.iter[v]]
		w := g.to[ai]
		if g.cap[ai] <= 0 || g.level[w] != g.level[v]+1 {
			continue
		}
		pushed := g.dfs(int(w), t, min(limit, g.cap[ai]), budget)
		if pushed > 0 {
			g.cap[ai] -= pushed
			g.cap[ai^1] += pushed
			return pushed
		}
	}
	return 0
}

// maxflow computes the s-t max flow under the linear work budget.
// ok=false means the budget tripped (or the flow degenerated to the
// forced-label capacity, which a feasible placement graph never does)
// and the result must not be used.
func (g *mincut) maxflow(s, t int) (flow int64, ok bool) {
	budget := int64(workFactor) * int64(g.nodes+len(g.to))
	for g.bfs(s, t, &budget) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			pushed := g.dfs(s, t, inf, &budget)
			if pushed == 0 {
				break
			}
			flow += pushed
			if flow >= inf {
				return flow, false
			}
		}
		if budget < 0 {
			return flow, false
		}
	}
	if budget < 0 {
		return flow, false
	}
	return flow, true
}

// minCutReachable marks the source side of the minimum cut: every node
// reachable from s in the residual graph.  Deterministic for a given
// arc insertion order.
func (g *mincut) minCutReachable(s int, mark []bool) {
	for i := range mark {
		mark[i] = false
	}
	g.queue = g.queue[:0]
	mark[s] = true
	g.queue = append(g.queue, int32(s))
	for qi := 0; qi < len(g.queue); qi++ {
		v := g.queue[qi]
		for _, ai := range g.adj[v] {
			if w := g.to[ai]; g.cap[ai] > 0 && !mark[w] {
				mark[w] = true
				g.queue = append(g.queue, w)
			}
		}
	}
}
