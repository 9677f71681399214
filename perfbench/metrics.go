package main

// metricSpec names one metric as BENCHMARK.json lists it.  For a
// per-layer metric, moves names the end-to-end metric it should move
// and on the workloads where it should move (and, after the slash,
// where it should read flat); a change that claims a gain on a layer
// cites these.
type metricSpec struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a user of the optimizer or the service
// sees, printed by every untraced run.  The three code-quality counts
// are the paper's measure of the generated code and are always taken
// over the suite, so they read the same on every workload.
var endToEnd = []metricSpec{
	{name: "items_per_s", unit: "1/s", better: "higher"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "p99_ms", unit: "ms", better: "lower"},
	{name: "ok_frac", unit: "frac", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "dynops_dist", unit: "ops", better: "lower"},
	{name: "dynops_all", unit: "ops", better: "lower"},
	{name: "static_ops_all", unit: "instrs", better: "lower"},
}

// benchPasses are the pipeline passes the per-layer metrics cover:
// every pass some level × backend configuration runs.
var benchPasses = []string{
	"sccp", "peephole", "dce", "coalesce", "emptyblocks", "normalize",
	"pre", "pre-lcm", "pre-lospre", "gvn", "gvn-precise", "reassoc", "reassoc-dist",
}

// perLayer are the metrics printed by a traced run.  Times are self
// time in µs per item, so a workload's time rows sum to its traced
// per-item latency; counts are per item.  Time spent runnable but
// waiting for a CPU lands in whichever span is open: on serve-miss,
// serve.cache.lookup.us is mostly the wait for a CPU after the item's
// pool job has finished.
var perLayer = func() []metricSpec {
	var ms []metricSpec
	for _, p := range benchPasses {
		pre := "pass." + p + "."
		ms = append(ms,
			metricSpec{pre + "us", "us", "lower", "items_per_s, p99_ms", "suite-opt, then serve-miss / flat on serve-cached"},
			metricSpec{pre + "alloc_kb", "KiB", "lower", "items_per_s", "suite-opt, then serve-miss / flat on serve-cached"},
			metricSpec{pre + "mutated_frac", "frac", "higher", "dynops_all, static_ops_all", "suite-opt / flat on serve-cached"},
			metricSpec{pre + "instr_delta", "instrs", "lower", "dynops_all, static_ops_all", "suite-opt / flat on serve-cached"},
			metricSpec{pre + "builds", "count", "lower", "items_per_s via pass." + p + ".us", "suite-opt, then serve-miss / flat on serve-cached"},
		)
	}
	for _, a := range []string{"rpo", "dom", "loops", "liveness"} {
		ms = append(ms, metricSpec{"analysis." + a + "_builds", "count", "lower", "items_per_s via pass.coalesce.us", "suite-opt / flat on serve-cached"})
	}
	return append(ms, []metricSpec{
		{"runtime.alloc_kb", "KiB", "lower", "items_per_s", "suite-opt, serve-miss"},
		{"runtime.gc_cycles", "count", "lower", "items_per_s", "suite-opt, serve-miss"},
		{"lang.compile.us", "us", "lower", "p50_ms", "serve-cached, suite-opt"},
		{"ir.clone.us", "us", "lower", "p50_ms", "suite-opt, serve-miss / flat on serve-cached"},
		{"ir.verify.us", "us", "lower", "p50_ms", "suite-opt, serve-miss / flat on serve-cached"},
		{"ir.print.us", "us", "lower", "p50_ms", "serve-cached, suite-opt"},
		{"serve.transport.decode.us", "us", "lower", "p50_ms, items_per_s", "serve-cached / small on serve-miss"},
		{"serve.transport.encode.us", "us", "lower", "p50_ms, items_per_s", "serve-cached / small on serve-miss"},
		{"serve.cache.key.us", "us", "lower", "p50_ms, items_per_s", "serve-cached / small on serve-miss"},
		{"serve.cache.lookup.us", "us", "lower", "p50_ms, items_per_s", "serve-cached / small on serve-miss"},
		{"serve.cache.hit_ratio", "frac", "higher", "p99_ms", "serve-cached reads / 0 on serve-miss"},
		{"serve.cache.shared", "frac", "higher", "p99_ms", "serve-cached reads, serve-miss"},
		{"serve.disk.hit_ratio", "frac", "higher", "p99_ms", "serve-cached reads / 0 on serve-miss"},
		{"serve.disk.get.us", "us", "lower", "p99_ms", "serve-cached reads"},
		{"serve.disk.writes", "count", "lower", "p99_ms", "serve-miss writes / 0 on serve-cached"},
		{"serve.disk.warm_ms", "ms", "lower", "setup_s", "serve-cached"},
		{"serve.pool.wait.us", "us", "lower", "p99_ms", "serve-miss / ~0 on serve-cached"},
		{"serve.optimize.us", "us", "lower", "p99_ms", "serve-miss / ~0 on serve-cached"},
		{"trace.overhead_frac", "frac", "higher", "none: the cost of tracing itself", "every workload"},
	}...)
}()
