package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
)

// PassStats aggregates every application of one pass across an
// optimization run: how often it ran, how often it changed the function
// (moved its mutation generation), cumulative wall time, and how many
// analyses the shared cache had to build while it ran (cache misses — a
// pass served entirely from cache contributes zero).
type PassStats struct {
	Pass     string
	Applied  int
	Changed  int
	Duration time.Duration
	Builds   analysis.BuildCounts
}

// PassStatsCollector accumulates PassInfo observations; its Observe
// method is an OptimizeOptions.OnPass hook and is safe for the
// concurrent calls a parallel optimization produces.
type PassStatsCollector struct {
	mu     sync.Mutex
	order  []string
	byPass map[string]*PassStats
}

// NewPassStatsCollector returns an empty collector.
func NewPassStatsCollector() *PassStatsCollector {
	return &PassStatsCollector{byPass: make(map[string]*PassStats)}
}

// Observe folds one pass application into the totals.
func (c *PassStatsCollector) Observe(info PassInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.byPass[info.Pass]
	if !ok {
		st = &PassStats{Pass: info.Pass}
		c.byPass[info.Pass] = st
		c.order = append(c.order, info.Pass)
	}
	st.Applied++
	if info.Changed {
		st.Changed++
	}
	st.Duration += info.Duration
	st.Builds = st.Builds.Add(info.Builds)
}

// Stats returns a snapshot of the per-pass totals in first-observed
// order (the pipeline's pass order for a serial run; ties are stable).
func (c *PassStatsCollector) Stats() []PassStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PassStats, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, *c.byPass[name])
	}
	return out
}

// Write renders the totals as an aligned table, sorted by cumulative
// time (the expensive passes first), with a totals line.
func (c *PassStatsCollector) Write(w io.Writer) {
	stats := c.Stats()
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Duration > stats[j].Duration })
	fmt.Fprintf(w, "%-16s %8s %8s %12s %6s %6s %6s %6s\n",
		"pass", "applied", "changed", "time", "rpo", "dom", "loops", "live")
	fmt.Fprintln(w, strings.Repeat("-", 75))
	var total PassStats
	for _, st := range stats {
		fmt.Fprintf(w, "%-16s %8d %8d %12s %6d %6d %6d %6d\n",
			st.Pass, st.Applied, st.Changed, st.Duration.Round(time.Microsecond),
			st.Builds.RPO, st.Builds.Dom, st.Builds.Loops, st.Builds.Liveness)
		total.Applied += st.Applied
		total.Changed += st.Changed
		total.Duration += st.Duration
		total.Builds = total.Builds.Add(st.Builds)
	}
	fmt.Fprintln(w, strings.Repeat("-", 75))
	fmt.Fprintf(w, "%-16s %8d %8d %12s %6d %6d %6d %6d\n",
		"total", total.Applied, total.Changed, total.Duration.Round(time.Microsecond),
		total.Builds.RPO, total.Builds.Dom, total.Builds.Loops, total.Builds.Liveness)
}
