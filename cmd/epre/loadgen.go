package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"flag"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/suite"
)

// loadgenReport is the JSON report `epre loadgen -out` writes: a
// deterministic replay of a generated corpus against the optimization
// service, one entry per scenario, each carrying an HDR-style latency
// histogram and the server counters the run moved.
type loadgenReport struct {
	Timestamp       string           `json:"timestamp"`
	Tool            string           `json:"tool"`
	GoMaxProcs      int              `json:"gomaxprocs"`
	PipelineVersion string           `json:"pipeline_version"`
	Level           string           `json:"level"`
	Corpus          string           `json:"corpus"`
	CorpusSeed      uint64           `json:"corpus_seed"`
	CorpusPrograms  int              `json:"corpus_programs"`
	ScheduleSeed    uint64           `json:"schedule_seed"`
	Verified        bool             `json:"verified"`
	Scenarios       []scenarioResult `json:"scenarios"`
	// BatchSpeedup is batch items/sec over single requests/sec, when the
	// default scenario suite ran both.
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`
}

// scenarioResult is one load scenario's outcome.
type scenarioResult struct {
	Name           string  `json:"name"`
	Endpoint       string  `json:"endpoint"`
	Requests       int     `json:"requests"`
	Items          int     `json:"items"`
	Workers        int     `json:"workers"`
	BatchSize      int     `json:"batch_size,omitempty"`
	TargetQPS      float64 `json:"target_qps,omitempty"`
	WallSeconds    float64 `json:"wall_seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	ItemsPerSec    float64 `json:"items_per_sec"`

	// Latency percentiles (per HTTP request) from the histogram, plus
	// the nonzero histogram buckets themselves.
	P50Millis float64      `json:"p50_ms"`
	P90Millis float64      `json:"p90_ms"`
	P99Millis float64      `json:"p99_ms"`
	MaxMillis float64      `json:"max_ms"`
	Histogram []histBucket `json:"latency_histogram"`

	// Counters are the /debug/vars deltas this scenario produced.
	Counters lgCounters `json:"counters"`

	// FirstPassHitRate is set by the warm-restart scenario: the fraction
	// of the first post-restart pass answered without recomputation.
	FirstPassHitRate float64 `json:"first_pass_hit_rate,omitempty"`

	Errors int `json:"errors"`
}

// lgCounters is the server-counter subset a load scenario reports, as a
// before/after delta.
type lgCounters struct {
	Requests          int64 `json:"requests"`
	BatchRequests     int64 `json:"batch_requests"`
	BatchItems        int64 `json:"batch_items"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	Shared            int64 `json:"singleflight_shared"`
	DiskHits          int64 `json:"disk_hits"`
	DiskWrites        int64 `json:"disk_writes"`
	DiskWarmed        int64 `json:"disk_warmed"`
	PeerForwards      int64 `json:"peer_forwards"`
	PeerForwardErrors int64 `json:"peer_forward_errors"`
	Rejected          int64 `json:"rejected"`
	Timeouts          int64 `json:"timeouts"`
	Errors            int64 `json:"errors"`
}

func (a lgCounters) sub(b lgCounters) lgCounters {
	return lgCounters{
		Requests:          a.Requests - b.Requests,
		BatchRequests:     a.BatchRequests - b.BatchRequests,
		BatchItems:        a.BatchItems - b.BatchItems,
		CacheHits:         a.CacheHits - b.CacheHits,
		CacheMisses:       a.CacheMisses - b.CacheMisses,
		Shared:            a.Shared - b.Shared,
		DiskHits:          a.DiskHits - b.DiskHits,
		DiskWrites:        a.DiskWrites - b.DiskWrites,
		DiskWarmed:        a.DiskWarmed - b.DiskWarmed,
		PeerForwards:      a.PeerForwards - b.PeerForwards,
		PeerForwardErrors: a.PeerForwardErrors - b.PeerForwardErrors,
		Rejected:          a.Rejected - b.Rejected,
		Timeouts:          a.Timeouts - b.Timeouts,
		Errors:            a.Errors - b.Errors,
	}
}

func snapshotCounters(m *serve.Metrics) lgCounters {
	return lgCounters{
		Requests:          m.Get("requests"),
		BatchRequests:     m.Get("batch_requests"),
		BatchItems:        m.Get("batch_items"),
		CacheHits:         m.Get("cache_hits"),
		CacheMisses:       m.Get("cache_misses"),
		Shared:            m.Get("singleflight_shared"),
		DiskHits:          m.Get("disk_hits"),
		DiskWrites:        m.Get("disk_writes"),
		DiskWarmed:        m.Get("disk_warmed"),
		PeerForwards:      m.Get("peer_forwards"),
		PeerForwardErrors: m.Get("peer_forward_errors"),
		Rejected:          m.Get("rejected"),
		Timeouts:          m.Get("timeouts"),
		Errors:            m.Get("errors"),
	}
}

// ---------------------------------------------------------------------
// HDR-style histogram: log-linear buckets, powers of two subdivided
// into 8 linear sub-buckets, 1µs resolution.  Compact (a few hundred
// buckets cover µs to hours), constant-time insert, and percentile
// queries with bounded relative error (≤ 12.5%) — the standard shape
// for latency recording without keeping every sample.

const histSubBuckets = 8

type lgHist struct {
	counts []int64
	total  int64
	max    time.Duration
}

func histIndex(us int64) int {
	if us < histSubBuckets {
		return int(us)
	}
	exp := bits.Len64(uint64(us)) - 1 // >= 3
	sub := int((us >> uint(exp-3)) & 7)
	return (exp-2)*histSubBuckets + sub
}

// histUpper is the exclusive upper bound of bucket idx, in µs.
func histUpper(idx int) int64 {
	octave := idx / histSubBuckets
	sub := int64(idx % histSubBuckets)
	if octave == 0 {
		return sub + 1
	}
	exp := octave + 2
	width := int64(1) << uint(exp-3)
	return (8+sub)*width + width
}

func (h *lgHist) record(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := histIndex(us)
	for len(h.counts) <= idx {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx]++
	h.total++
	if d > h.max {
		h.max = d
	}
}

func (h *lgHist) merge(o *lgHist) {
	for len(h.counts) < len(o.counts) {
		h.counts = append(h.counts, 0)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in milliseconds (upper bucket edge).
func (h *lgHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := int64(q * float64(h.total-1))
	var seen int64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen > rank {
			return float64(histUpper(i)) / 1000
		}
	}
	return float64(h.max.Microseconds()) / 1000
}

type histBucket struct {
	UpToMillis float64 `json:"up_to_ms"`
	Count      int64   `json:"count"`
}

func (h *lgHist) buckets() []histBucket {
	var out []histBucket
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, histBucket{UpToMillis: float64(histUpper(i)) / 1000, Count: c})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// The load generator proper.

// lgTarget is one server under load: its base URL plus (for in-process
// servers) direct access to the metrics, avoiding an HTTP round trip
// per counter snapshot.
type lgTarget struct {
	base string
	m    *serve.Metrics
}

func (t *lgTarget) counters() (lgCounters, error) {
	if t.m != nil {
		return snapshotCounters(t.m), nil
	}
	resp, err := http.Get(t.base + "/debug/vars")
	if err != nil {
		return lgCounters{}, err
	}
	defer resp.Body.Close()
	var c lgCounters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return lgCounters{}, fmt.Errorf("loadgen: bad /debug/vars: %w", err)
	}
	return c, nil
}

// lgRun replays `schedule` (corpus indices) against the target.  With
// batch > 1 consecutive schedule entries are grouped into one
// /optimize/batch request; otherwise each entry is one /optimize call.
// qps > 0 paces request starts open-loop on a deterministic schedule
// (arrival i at i/qps); qps == 0 is closed-loop (workers go full tilt).
// expected, when non-nil, maps corpus index → the ILOC a correct server
// must return; any deviation is an error.
func lgRun(target *lgTarget, name string, corpus []string, schedule []int,
	level string, workers, batch int, qps float64, expected []string) (scenarioResult, error) {

	res := scenarioResult{Name: name, Endpoint: "/optimize", Workers: workers, TargetQPS: qps}
	if batch > 1 {
		res.Endpoint = "/optimize/batch"
		res.BatchSize = batch
	}
	before, err := target.counters()
	if err != nil {
		return res, err
	}

	// Requests: either one schedule entry each, or batch-sized groups.
	type job struct {
		items []int
		due   time.Duration // open-loop arrival offset; 0 in closed loop
	}
	var jobs []job
	if batch > 1 {
		for i := 0; i < len(schedule); i += batch {
			end := i + batch
			if end > len(schedule) {
				end = len(schedule)
			}
			jobs = append(jobs, job{items: schedule[i:end]})
		}
	} else {
		for i := range schedule {
			jobs = append(jobs, job{items: schedule[i : i+1]})
		}
	}
	if qps > 0 {
		for i := range jobs {
			jobs[i].due = time.Duration(float64(i) / qps * float64(time.Second))
		}
	}
	res.Requests = len(jobs)
	res.Items = len(schedule)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	jobc := make(chan job)
	errc := make(chan error, workers)
	hists := make([]*lgHist, workers)
	errCounts := make([]int, workers)

	post := func(j job) (time.Duration, error) {
		var body []byte
		var err error
		path := "/optimize"
		if batch > 1 {
			req := serve.BatchRequest{Defaults: &serve.BatchDefaults{Level: level}}
			for _, ci := range j.items {
				req.Items = append(req.Items, serve.OptimizeRequest{Source: corpus[ci]})
			}
			body, err = json.Marshal(&req)
			path = "/optimize/batch"
		} else {
			body, err = json.Marshal(serve.OptimizeRequest{Source: corpus[j.items[0]], Level: level})
		}
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := client.Post(target.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		if resp.StatusCode != http.StatusOK {
			return lat, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		if expected == nil {
			return lat, nil
		}
		if batch > 1 {
			var out serve.BatchResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				return lat, err
			}
			if len(out.Items) != len(j.items) {
				return lat, fmt.Errorf("batch returned %d items, want %d", len(out.Items), len(j.items))
			}
			for k, item := range out.Items {
				if item.Error != "" {
					return lat, fmt.Errorf("batch item %d: %s", k, item.Error)
				}
				if item.ILOC != expected[j.items[k]] {
					return lat, fmt.Errorf("batch item %d: ILOC differs from direct optimization", k)
				}
			}
		} else {
			var out serve.OptimizeResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				return lat, err
			}
			if out.ILOC != expected[j.items[0]] {
				return lat, fmt.Errorf("ILOC differs from direct optimization")
			}
		}
		return lat, nil
	}

	start := time.Now()
	for w := 0; w < workers; w++ {
		h := &lgHist{}
		hists[w] = h
		go func(w int) {
			var firstErr error
			for j := range jobc {
				if j.due > 0 {
					if d := j.due - time.Since(start); d > 0 {
						time.Sleep(d)
					}
				}
				lat, err := post(j)
				h.record(lat)
				if err != nil {
					errCounts[w]++
					if firstErr == nil {
						firstErr = err
					}
				}
			}
			errc <- firstErr
		}(w)
	}
	for _, j := range jobs {
		jobc <- j
	}
	close(jobc)
	var firstErr error
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	wall := time.Since(start)

	hist := &lgHist{}
	for _, h := range hists {
		hist.merge(h)
	}
	for _, n := range errCounts {
		res.Errors += n
	}
	res.WallSeconds = wall.Seconds()
	res.RequestsPerSec = float64(res.Requests) / wall.Seconds()
	res.ItemsPerSec = float64(res.Items) / wall.Seconds()
	res.P50Millis = hist.quantile(0.50)
	res.P90Millis = hist.quantile(0.90)
	res.P99Millis = hist.quantile(0.99)
	res.MaxMillis = float64(hist.max.Microseconds()) / 1000
	res.Histogram = hist.buckets()
	after, err := target.counters()
	if err != nil {
		return res, err
	}
	res.Counters = after.sub(before)
	if firstErr != nil {
		return res, fmt.Errorf("loadgen: %s: %d/%d requests failed; first: %w", name, res.Errors, res.Requests, firstErr)
	}
	return res, nil
}

// startLocalServer boots an in-process daemon for a scenario.
func startLocalServer(cfg serve.Config) (*lgTarget, func(), error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go s.Serve(l)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	return &lgTarget{base: "http://" + l.Addr().String(), m: s.Metrics()}, stop, nil
}

// cmdLoadgen replays a deterministic corpus against the optimization
// service and optionally writes a JSON report (-out).  Without -addr it
// runs the standard three-scenario suite against in-process servers:
// single-endpoint throughput, batch-endpoint throughput over the same
// schedule, and a warm-restart pass over a persistent cache directory
// (measuring the first-pass hit rate a restarted server gets from disk
// warming).  With -addr it runs one scenario against the given server.
func cmdLoadgen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	out := fs.String("out", "", "JSON report file (empty = summary only)")
	addr := fs.String("addr", "", "base URL of an already-running server (empty = in-process scenario suite)")
	requests := fs.Int("requests", 400, "schedule length, in programs (items)")
	workers := fs.Int("workers", 16, "concurrent client workers")
	qps := fs.Float64("qps", 0, "open-loop target request rate (0 = closed loop)")
	batch := fs.Int("batch", 32, "items per /optimize/batch request in the batch scenario (or with -addr, >1 selects the batch endpoint)")
	level := fs.String("level", "reassoc", "optimization level for every request")
	corpusKind := fs.String("corpus", "progen", "workload corpus: progen (generated ILOC) or suite (the paper's routines)")
	corpusSeed := fs.Uint64("corpus-seed", 1, "progen corpus seed")
	corpusN := fs.Int("corpus-n", 32, "distinct programs in the progen corpus")
	schedSeed := fs.Uint64("seed", 1, "deterministic request-schedule seed")
	verify := fs.Bool("verify", true, "check every response byte-identical to a direct in-process optimization")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("loadgen: unexpected arguments %v", fs.Args())
	}

	lvl, err := core.ParseLevel(*level)
	if err != nil {
		return err
	}
	var corpus []string
	switch *corpusKind {
	case "progen":
		corpus = progen.Corpus(*corpusSeed, *corpusN)
	case "suite":
		for _, r := range suite.All() {
			corpus = append(corpus, r.Source)
		}
	default:
		return fmt.Errorf("loadgen: unknown corpus %q (want progen or suite)", *corpusKind)
	}
	if len(corpus) == 0 {
		return fmt.Errorf("loadgen: empty corpus")
	}
	if *requests < len(corpus) {
		// Every corpus program appears at least once (the schedule below
		// starts with one full sweep), so the schedule cannot be shorter
		// than the corpus.
		*requests = len(corpus)
	}

	// Deterministic schedule: one full corpus sweep (so every program is
	// computed), then seeded random replay — the steady-state mix of hits
	// over a warmed cache.
	rng := rand.New(rand.NewSource(int64(*schedSeed)))
	schedule := make([]int, *requests)
	for i := range schedule {
		if i < len(corpus) {
			schedule[i] = i
		} else {
			schedule[i] = rng.Intn(len(corpus))
		}
	}

	// Ground truth for -verify: optimize each program directly, in
	// process — the bytes every serving path must reproduce.
	var expected []string
	if *verify {
		expected = make([]string, len(corpus))
		for i, src := range corpus {
			prog, err := parseAny(src)
			if err != nil {
				return fmt.Errorf("loadgen: corpus program %d: %w", i, err)
			}
			direct, err := core.OptimizeWith(prog, lvl, core.OptimizeOptions{})
			if err != nil {
				return fmt.Errorf("loadgen: direct optimization of corpus program %d: %w", i, err)
			}
			expected[i] = direct.String()
		}
	}

	rep := &loadgenReport{
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		Tool:            "epre loadgen",
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		PipelineVersion: core.PipelineVersion(),
		Level:           string(lvl),
		Corpus:          *corpusKind,
		CorpusSeed:      *corpusSeed,
		CorpusPrograms:  len(corpus),
		ScheduleSeed:    *schedSeed,
		Verified:        *verify,
	}

	if *addr != "" {
		target := &lgTarget{base: *addr}
		res, err := lgRun(target, "remote", corpus, schedule, *level, *workers, *batch, *qps, expected)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, res)
	} else {
		// Scenario 1: single-endpoint throughput on a fresh server.
		target, stop, err := startLocalServer(serve.Config{})
		if err != nil {
			return err
		}
		single, err := lgRun(target, "single", corpus, schedule, *level, *workers, 1, *qps, expected)
		stop()
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, single)

		// Scenario 2: the same schedule through the batch endpoint on a
		// fresh server — the HTTP/JSON amortization measurement.
		target, stop, err = startLocalServer(serve.Config{})
		if err != nil {
			return err
		}
		batchRes, err := lgRun(target, "batch", corpus, schedule, *level, *workers, *batch, *qps, expected)
		stop()
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, batchRes)
		if single.ItemsPerSec > 0 {
			rep.BatchSpeedup = batchRes.ItemsPerSec / single.ItemsPerSec
		}

		// Scenario 3: warm restart.  Seed a disk store, restart the
		// server over it, and replay one corpus pass: the fraction
		// answered without recomputation is the warming payoff.
		dir, err := os.MkdirTemp("", "epre-loadgen-cache-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		target, stop, err = startLocalServer(serve.Config{CacheDir: dir})
		if err != nil {
			return err
		}
		if _, err := lgRun(target, "seed", corpus, schedule[:len(corpus)], *level, *workers, *batch, 0, expected); err != nil {
			stop()
			return err
		}
		stop() // the "restart"
		target, stop, err = startLocalServer(serve.Config{CacheDir: dir})
		if err != nil {
			return err
		}
		warm, err := lgRun(target, "warm-restart", corpus, schedule[:len(corpus)], *level, *workers, 1, *qps, expected)
		if abs, cerr := target.counters(); cerr == nil {
			// Warming happens at server startup, before the replay's
			// delta window opens — report it absolutely.
			warm.Counters.DiskWarmed = abs.DiskWarmed
		}
		stop()
		if err != nil {
			return err
		}
		served := warm.Counters.CacheHits + warm.Counters.Shared + warm.Counters.DiskHits
		warm.FirstPassHitRate = float64(served) / float64(len(corpus))
		rep.Scenarios = append(rep.Scenarios, warm)
		if warm.FirstPassHitRate <= 0 {
			return fmt.Errorf("loadgen: warm-restart first-pass hit rate is zero; disk warming is broken")
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	for _, sc := range rep.Scenarios {
		extra := ""
		if sc.FirstPassHitRate > 0 {
			extra = fmt.Sprintf(", first-pass hit rate %.2f", sc.FirstPassHitRate)
		}
		fmt.Fprintf(stdout, "%-13s %5d reqs / %5d items in %6.2fs: %8.1f items/s (p50 %.1fms, p99 %.1fms; %d misses, %d hits%s)\n",
			sc.Name+":", sc.Requests, sc.Items, sc.WallSeconds, sc.ItemsPerSec,
			sc.P50Millis, sc.P99Millis, sc.Counters.CacheMisses, sc.Counters.CacheHits, extra)
	}
	if rep.BatchSpeedup > 0 {
		fmt.Fprintf(stdout, "batch speedup: %.2fx items/s over the single endpoint\n", rep.BatchSpeedup)
	}
	return nil
}

// parseAny compiles any supported source language by sniffing its
// leading keyword, mirroring the service's request parser.
func parseAny(src string) (*ir.Program, error) {
	p, _, err := lang.Compile(src, "")
	return p, err
}
