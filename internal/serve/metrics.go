package serve

import (
	"expvar"
	"net/http"

	"repro/internal/core"
)

// Metrics is the optimization service's observability surface: request
// and cache counters, per-pass cumulative wall time, and live gauges
// for queue depth and in-flight requests.  All counters are safe for
// concurrent update.  Each Server owns its own Metrics (nothing is
// registered in the process-global expvar namespace, so tests can run
// many servers side by side); the server exposes it at /debug/vars in
// the standard expvar JSON shape.
type Metrics struct {
	requests     expvar.Int // optimize requests received
	cacheHits    expvar.Int // served straight from the in-memory result cache
	cacheMisses  expvar.Int // optimizations actually performed
	spellingHits expvar.Int // keyed from the spelling index, front end skipped
	shared       expvar.Int // requests coalesced onto another's in-flight computation
	errors       expvar.Int // requests that failed (bad input, pass error)
	timeouts     expvar.Int // requests that hit their deadline
	rejected     expvar.Int // requests shed because the queue was full
	jobPanics    expvar.Int // pool jobs that panicked (contained, answered 500)
	inFlight     expvar.Int // requests currently being handled

	batchRequests expvar.Int // POST /optimize/batch requests received
	batchItems    expvar.Int // items carried by those batch requests

	diskHits    expvar.Int // misses answered by the on-disk store without recompute
	diskWrites  expvar.Int // results persisted to the on-disk store
	diskCorrupt expvar.Int // on-disk entries rejected (bad checksum/format) and dropped
	diskWarmed  expvar.Int // entries pre-loaded from disk into the LRU at startup

	passNanos   expvar.Map // pass name -> cumulative wall time, ns
	passCount   expvar.Map // pass name -> applications
	passChanged expvar.Map // pass name -> applications that changed the function
	analysisMap expvar.Map // analysis kind -> cache rebuilds during passes
	top         expvar.Map // the /debug/vars document
}

// NewMetrics builds an unpublished metrics set; queueDepth (may be nil)
// is polled for the queue_depth gauge.
func NewMetrics(queueDepth func() int64) *Metrics {
	m := &Metrics{}
	m.passNanos.Init()
	m.passCount.Init()
	m.passChanged.Init()
	m.analysisMap.Init()
	m.top.Init()
	m.top.Set("requests", &m.requests)
	m.top.Set("cache_hits", &m.cacheHits)
	m.top.Set("cache_misses", &m.cacheMisses)
	m.top.Set("spelling_hits", &m.spellingHits)
	m.top.Set("singleflight_shared", &m.shared)
	m.top.Set("errors", &m.errors)
	m.top.Set("timeouts", &m.timeouts)
	m.top.Set("rejected", &m.rejected)
	m.top.Set("job_panics", &m.jobPanics)
	m.top.Set("in_flight", &m.inFlight)
	m.top.Set("batch_requests", &m.batchRequests)
	m.top.Set("batch_items", &m.batchItems)
	m.top.Set("disk_hits", &m.diskHits)
	m.top.Set("disk_writes", &m.diskWrites)
	m.top.Set("disk_corrupt", &m.diskCorrupt)
	m.top.Set("disk_warmed", &m.diskWarmed)
	m.top.Set("pass_nanos", &m.passNanos)
	m.top.Set("pass_count", &m.passCount)
	m.top.Set("pass_changed", &m.passChanged)
	m.top.Set("analysis_builds", &m.analysisMap)
	if queueDepth != nil {
		m.top.Set("queue_depth", expvar.Func(func() any { return queueDepth() }))
	}
	return m
}

// ObservePass records one pass application; it is the core
// OptimizeOptions.OnPass hook and may be called concurrently.
func (m *Metrics) ObservePass(info core.PassInfo) {
	m.passNanos.Add(info.Pass, info.Duration.Nanoseconds())
	m.passCount.Add(info.Pass, 1)
	if info.Changed {
		m.passChanged.Add(info.Pass, 1)
	}
	if b := info.Builds; b.Total() > 0 {
		if b.Dom > 0 {
			m.analysisMap.Add("dom", int64(b.Dom))
		}
		if b.RPO > 0 {
			m.analysisMap.Add("rpo", int64(b.RPO))
		}
		if b.Loops > 0 {
			m.analysisMap.Add("loops", int64(b.Loops))
		}
		if b.Liveness > 0 {
			m.analysisMap.Add("liveness", int64(b.Liveness))
		}
	}
}

// Get returns a named counter's current value, for tests and the bench
// harness.
func (m *Metrics) Get(name string) int64 {
	if v, ok := m.top.Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// ServeHTTP renders the metrics as an expvar-style JSON document.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write([]byte(m.top.String()))
	w.Write([]byte("\n"))
}
