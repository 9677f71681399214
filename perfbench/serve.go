package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/serve"
)

const (
	// serveLevel is the level every serve request asks for.
	serveLevel = core.LevelReassoc
	// missBatch is the item count of one serve-miss batch request.
	missBatch = 8
	// missItemsPerSecond sizes the serve-miss corpus: enough distinct
	// programs for the window at this rate, about 1.5× today's.  A
	// server fast enough to exhaust them ends the window early.
	missItemsPerSecond = 1800
	// missWarmup is the number of serve-miss items sent before the
	// window opens.
	missWarmup = 6144
	// warmupLimit bounds a warm-up in seconds; a warm-up normally ends
	// when its requests do.
	warmupLimit = 600
	// cachedCorpus is serve-cached's corpus size, 4× the service's
	// default 256-entry LRU.
	cachedCorpus = 1024
	// cachedRequestsPerSecond sizes serve-cached's request schedule,
	// about 2× today's rate.
	cachedRequestsPerSecond = 8000
	// zipfS and zipfV skew serve-cached's requests, P(rank k) ∝
	// (zipfV+k)^-zipfS, so about four in five hit the in-memory LRU and
	// the rest read disk.  The offset flattens the head: the most
	// popular program draws under 3% of requests, so no single
	// program's size sets a seed's throughput.
	zipfS = 1.6
	zipfV = 24
)

// clientCount is the number of closed-loop clients: one per CPU, each
// holding one keep-alive connection.
func clientCount() int { return runtime.NumCPU() }

// corpus renders n distinct progen programs, generated in parallel.
// Element i is progen.Corpus(seed, n)[i].
func corpus(seed uint64, n int) []string {
	out := make([]string, n)
	parallel(n, func(i int) { out[i] = progen.Corpus(seed+uint64(i), 1)[0] })
	return out
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// directOptimize is the reference a served result must equal: the
// source optimized by core.OptimizeWith in this process.
func directOptimize(src string) (string, error) {
	prog, _, err := lang.Compile(src, "")
	if err != nil {
		return "", err
	}
	out, err := core.OptimizeWith(prog, serveLevel, core.OptimizeOptions{})
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// directRefs optimizes srcs directly, in parallel.
func directRefs(srcs []string) ([]string, error) {
	refs := make([]string, len(srcs))
	errs := make([]error, len(srcs))
	parallel(len(srcs), func(i int) { refs[i], errs[i] = directOptimize(srcs[i]) })
	return refs, errors.Join(errs...)
}

// liveServer is an in-process optimization service at its default
// configuration with a disk cache, listening on a loopback port.
type liveServer struct {
	srv    *serve.Server
	base   string
	client *http.Client
	done   chan error
}

// startServer boots a server over dir and reports how long serve.New
// took (opening and warming the disk store).
func startServer(dir string) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{CacheDir: dir})
	newTime := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ls := &liveServer{
		srv:    srv,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		done:   make(chan error, 1),
	}
	go func() { ls.done <- srv.Serve(ln) }()
	return ls, newTime, nil
}

// stop drains the server and waits for it to exit.
func (ls *liveServer) stop() error {
	ls.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// counterNames are the /debug/vars counters the benchmark reads.
var counterNames = []string{
	"cache_hits", "cache_misses", "singleflight_shared", "disk_hits",
	"disk_writes", "errors", "timeouts", "rejected",
}

// counters reads the server's /debug/vars counters.
func (ls *liveServer) counters() (map[string]int64, error) {
	resp, err := ls.client.Get(ls.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	out := map[string]int64{}
	for _, name := range counterNames {
		var v int64
		if err := json.Unmarshal(raw[name], &v); err != nil {
			return nil, fmt.Errorf("/debug/vars %s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// request is one HTTP request of a schedule: its body and the corpus
// indices of its items, in order.
type request struct {
	batch bool
	body  []byte
	items []int
}

func batchRequest(srcs []string, idxs []int) request {
	req := serve.BatchRequest{}
	for _, i := range idxs {
		req.Items = append(req.Items, serve.OptimizeRequest{Source: srcs[i], Level: string(serveLevel)})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return request{batch: true, body: body, items: idxs}
}

// load is the outcome of a closed-loop HTTP run.
type load struct {
	latencies []float64 // ms per request
	served    int       // requests completed: a prefix of the schedule
	items     int
	failed    int
	wall      float64
}

// drive runs the schedule closed-loop from clientCount clients until
// the deadline or the end of the schedule.  Each client sends its next
// request only after the previous reply.  check is called for every
// returned item and reports whether its ILOC is correct; it must be
// safe for concurrent use.
func drive(base, path string, reqs []request, seconds float64, check func(idx int, iloc string) bool) load {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		res    load
		wg     sync.WaitGroup
		start  = time.Now()
		finish = start.Add(time.Duration(seconds * float64(time.Second)))
	)
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			var lat []float64
			items, failed := 0, 0
			for time.Now().Before(finish) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				r := reqs[i]
				t0 := time.Now()
				resp, err := client.Post(base+path, "application/json", bytes.NewReader(r.body))
				var raw []byte
				if err == nil {
					raw, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
				items += len(r.items)
				if err != nil || resp.StatusCode != http.StatusOK {
					failed += len(r.items)
					continue
				}
				failed += checkReply(r, raw, check)
			}
			mu.Lock()
			res.latencies = append(res.latencies, lat...)
			res.items += items
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	// Every request taken from the counter completes, so the served
	// requests are a prefix of the schedule.
	res.served = len(res.latencies)
	return res
}

// checkReply decodes a 200 reply and returns how many of its items are
// wrong: an item error, a missing item, or ILOC that check rejects.
func checkReply(r request, raw []byte, check func(int, string) bool) int {
	if !r.batch {
		var out serve.OptimizeResponse
		if json.Unmarshal(raw, &out) != nil || !check(r.items[0], out.ILOC) {
			return 1
		}
		return 0
	}
	var out serve.BatchResponse
	if json.Unmarshal(raw, &out) != nil || len(out.Items) != len(r.items) {
		return len(r.items)
	}
	bad := 0
	for k, item := range out.Items {
		if item.Error != "" || item.OptimizeResponse == nil || !check(r.items[k], item.ILOC) {
			bad++
		}
	}
	return bad
}

// serveRun is the measured part shared by the serve workloads: read
// counters, drive the schedule, read counters again and fold failures;
// with trace, turn the counter deltas into per-layer ratios.
func serveRun(rep *report, ls *liveServer, path string, reqs []request, opts options, check func(int, string) bool) (map[string]int64, load, error) {
	before, err := ls.counters()
	if err != nil {
		return nil, load{}, err
	}
	a0, g0 := runtimeCounters()
	ld := drive(ls.base, path, reqs, opts.seconds, check)
	a1, g1 := runtimeCounters()
	after, err := ls.counters()
	if err != nil {
		return nil, load{}, err
	}
	delta := map[string]int64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	rep.latencies = ld.latencies
	rep.items = ld.items
	rep.wall = ld.wall
	rep.attempted = ld.items
	rep.failed = ld.failed + int(delta["errors"]+delta["timeouts"]+delta["rejected"])
	if opts.trace {
		n := float64(ld.items)
		rep.layers = map[string]float64{
			"serve.cache.hit_ratio": float64(delta["cache_hits"]) / n,
			"serve.cache.shared":    float64(delta["singleflight_shared"]) / n,
			"serve.disk.hit_ratio":  float64(delta["disk_hits"]) / n,
			"serve.disk.writes":     float64(delta["disk_writes"]) / n,
		}
		runtimeLayers(rep.layers, ld.items, a0, g0, a1, g1)
	}
	return delta, ld, nil
}

// addQuality folds the suite's code-quality counts into a serve
// report; they are workload-independent, measured outside the window.
func addQuality(rep *report) error {
	q, bad, err := suiteQuality()
	if err != nil {
		return err
	}
	rep.quality = q
	rep.failed += bad
	return nil
}

// missCorpus is serve-miss's input: enough distinct programs for the
// warm-up and the window.
func missCorpus(seed uint64, seconds float64) []string {
	return corpus(seed, missWarmup+int(math.Ceil(seconds*missItemsPerSecond/missBatch))*missBatch)
}

// missRequests groups the corpus into batches of missBatch, in sending
// order.
func missRequests(srcs []string) []request {
	reqs := make([]request, len(srcs)/missBatch)
	parallel(len(reqs), func(i int) {
		idxs := make([]int, missBatch)
		for k := range idxs {
			idxs[k] = i*missBatch + k
		}
		reqs[i] = batchRequest(srcs, idxs)
	})
	return reqs
}

// corpusSeed derives a workload's program-corpus seed from the
// benchmark seed.  progen seeds its generator modulo 2^31-1, so the
// corpora of seeds below 2048, each under 2^20 programs, never overlap.
func corpusSeed(seed uint64) uint64 { return seed << 20 }

// runServeMiss is the serve-miss workload: batches of never-seen
// programs, so every item misses the memory and disk caches, is
// optimized on the pool, and is written to disk.
func runServeMiss(opts options) (*report, error) {
	rep := &report{corpusSeed: corpusSeed(opts.seed), scheduleSeed: opts.seed}
	srcs := missCorpus(rep.corpusSeed, opts.seconds)
	var (
		reqs []request
		ls   *liveServer
		dir  string
		warm []float64
	)
	for i := 0; i < opts.setups; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		start := time.Now()
		reqs = missRequests(srcs)
		var err error
		if dir, err = os.MkdirTemp(opts.workdir, "serve-miss-"); err != nil {
			return nil, err
		}
		var newTime time.Duration
		if ls, newTime, err = startServer(dir); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
		warm = append(warm, float64(newTime.Nanoseconds())/1e6)
	}
	defer os.RemoveAll(dir)

	got := make([]string, len(srcs))
	record := func(idx int, iloc string) bool {
		got[idx] = iloc
		return true
	}
	// A fresh disk store creates its shard directories and first files
	// slowly; the warm-up fills it past that before the window opens.
	warmReqs, reqs := reqs[:missWarmup/missBatch], reqs[missWarmup/missBatch:]
	wu := drive(ls.base, "/optimize/batch", warmReqs, warmupLimit, record)
	delta, ld, err := serveRun(rep, ls, "/optimize/batch", reqs, opts, record)
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	rep.attempted += wu.items
	rep.failed += wu.failed
	// Every served item is compared with a direct optimization, outside
	// the window.
	refs, err := directRefs(srcs[:missWarmup+ld.served*missBatch])
	if err != nil {
		return nil, err
	}
	for i, ref := range refs {
		if got[i] != "" && got[i] != ref {
			rep.failed++
		}
	}
	// Every item is a miss: a hit means a program repeated.
	rep.failed += int(delta["cache_hits"] + delta["disk_hits"])
	if err := addQuality(rep); err != nil {
		return nil, err
	}
	if opts.trace {
		rep.layers["serve.disk.warm_ms"] = median(warm)
		empty, err := os.MkdirTemp(opts.workdir, "serve-miss-replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(empty)
		if err := replayServe(rep, reqs[:ld.served], refs, empty, false); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// cachedSchedule is serve-cached's input: a corpus, one /optimize body
// per program, and a Zipf-skewed request schedule in which corpus
// index 0 is the most popular program.
func cachedSchedule(seed, schedSeed uint64, seconds float64) ([]string, []request) {
	srcs := corpus(seed, cachedCorpus)
	bodies := make([][]byte, len(srcs))
	for i, src := range srcs {
		body, err := json.Marshal(serve.OptimizeRequest{Source: src, Level: string(serveLevel)})
		if err != nil {
			panic(err) // a struct of strings always marshals
		}
		bodies[i] = body
	}
	rng := rand.New(rand.NewPCG(schedSeed, 0xcac4e))
	zipf := rand.NewZipf(rng, zipfS, zipfV, cachedCorpus-1)
	reqs := make([]request, int(math.Ceil(seconds*cachedRequestsPerSecond)))
	for i := range reqs {
		idx := int(zipf.Uint64())
		reqs[i] = request{body: bodies[idx], items: []int{idx}}
	}
	return srcs, reqs
}

// populate writes every program's result into a fresh disk store via a
// server, least popular first so the most popular are the most recent,
// and restarts a server over it, which warms the LRU with the 256 most
// recent entries.  It returns the restarted server and how long its
// serve.New took.
func populate(dir string, srcs, refs []string) (*liveServer, time.Duration, error) {
	ls, _, err := startServer(dir)
	if err != nil {
		return nil, 0, err
	}
	const chunk = 64
	var reqs []request
	for hi := len(srcs); hi > 0; hi -= chunk {
		var idxs []int
		for i := hi - 1; i >= hi-chunk && i >= 0; i-- {
			idxs = append(idxs, i)
		}
		reqs = append(reqs, batchRequest(srcs, idxs))
	}
	for _, r := range reqs {
		resp, err := ls.client.Post(ls.base+"/optimize/batch", "application/json", bytes.NewReader(r.body))
		if err != nil {
			ls.stop()
			return nil, 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("populate: status %d", resp.StatusCode)
		}
		if err == nil && checkReply(r, raw, func(i int, iloc string) bool { return iloc == refs[i] }) > 0 {
			err = errors.New("populate: served ILOC differs from direct optimization")
		}
		if err != nil {
			ls.stop()
			return nil, 0, err
		}
	}
	if err := ls.stop(); err != nil {
		return nil, 0, err
	}
	return startServer(dir)
}

// runServeCached is the serve-cached workload: single requests over a
// corpus that is entirely on disk and partly in memory, so nothing is
// recomputed and the front end, JSON and HTTP are the cost.
func runServeCached(opts options) (*report, error) {
	rep := &report{corpusSeed: corpusSeed(opts.seed), scheduleSeed: opts.seed}
	srcs, reqs := cachedSchedule(rep.corpusSeed, rep.scheduleSeed, opts.seconds)
	refs, err := directRefs(srcs)
	if err != nil {
		return nil, err
	}
	var (
		ls   *liveServer
		dir  string
		warm []float64
	)
	for i := 0; i < opts.setups; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		start := time.Now()
		if dir, err = os.MkdirTemp(opts.workdir, "serve-cached-"); err != nil {
			return nil, err
		}
		var newTime time.Duration
		if ls, newTime, err = populate(dir, srcs, refs); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
		warm = append(warm, float64(newTime.Nanoseconds())/1e6)
	}
	defer os.RemoveAll(dir)

	delta, ld, err := serveRun(rep, ls, "/optimize", reqs, opts, func(idx int, iloc string) bool {
		return iloc == refs[idx]
	})
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// Nothing may be recomputed after setup.
	rep.failed += int(delta["cache_misses"])
	if err := addQuality(rep); err != nil {
		return nil, err
	}
	if opts.trace {
		rep.layers["serve.disk.warm_ms"] = median(warm)
		if err := replayServe(rep, reqs[:ld.served], refs, dir, true); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
