// Package serve turns the epre optimizer into a long-lived, concurrent
// optimization service: an HTTP/JSON daemon that accepts Mini-Fortran,
// PL/0 or ILOC source, optimizes it at a requested level on a bounded
// worker pool, and returns the optimized ILOC together with
// static/dynamic operation statistics and checker diagnostics.
//
// The package is layered like an inference-serving stack, and the files
// follow the layers:
//
//   - transport (transport.go, batch.go): HTTP handlers decode
//     requests, validate them and map errors onto status codes.  The
//     batch endpoint amortizes HTTP+JSON overhead over many programs
//     per request.
//   - cache (cache.go, diskstore.go): a content-addressed LRU keyed by
//     SHA-256 of (pipeline version of the GVN/PRE backend pair,
//     language, level, checked?, canonical ILOC) with single-flight
//     coalescing, backed by an optional persistent on-disk store that
//     survives restarts.  In front of it sits the spelling index, a
//     second LRU from the digest of a request exactly as sent to the
//     key and language computed for it, so a repeated request skips
//     the front end and canonical printing.
//   - pool (pool.go): a bounded worker pool with a bounded admission
//     queue; single requests beyond capacity are shed with 503, batch
//     items block for a slot instead (the batch was already admitted).
//     Every optimization runs serially on one pool worker, under the
//     pool's panic recovery; parallelism is across requests only.
//
// Everything runs under per-request context deadlines plumbed through
// the optimizer, the checker and the interpreter; counters for every
// layer are exported on /debug/vars and /healthz reports liveness.  Run
// drains gracefully on SIGINT/SIGTERM.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
)

// Config tunes the service; the zero value picks sensible defaults.
type Config struct {
	// Workers bounds concurrently running optimizations (default
	// GOMAXPROCS).
	Workers int
	// Queue bounds additionally queued optimizations (default 64).
	Queue int
	// CacheSize bounds the in-memory result cache, in entries (default
	// 256).
	CacheSize int
	// Timeout is the per-request deadline (default 30s).
	Timeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// MaxBatch bounds the item count of one /optimize/batch request
	// (default 256).
	MaxBatch int

	// CacheDir, when set, roots a persistent content-addressed result
	// store underneath the LRU: misses consult it before recomputing,
	// results are written back, and at startup the most recent entries
	// are warmed into the LRU so a restarted server keeps its hit rate.
	CacheDir string
	// DiskCacheBytes bounds the on-disk store (0 = unlimited); least
	// recently used entries are evicted past the budget.
	DiskCacheBytes int64
	// DiskFsync syncs entry files before the atomic rename (slower;
	// survives power loss, not just process death).
	DiskFsync bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	return c
}

// cachedResult is what the cache stores per key.  The parsed program is
// derived lazily from the ILOC text (results warmed from disk never pay
// for parsing unless a run is requested); once built it is immutable,
// so concurrent Run requests share it.
type cachedResult struct {
	iloc      string
	staticOps int
	diags     []string

	once    sync.Once
	prog    *ir.Program
	progErr error
}

// program returns the parsed optimized program, building it on first
// use.  Results constructed by the optimizer carry their program
// already; disk- and warm-path results parse their ILOC here.
func (c *cachedResult) program() (*ir.Program, error) {
	c.once.Do(func() {
		if c.prog == nil {
			c.prog, c.progErr = ir.ParseProgramString(c.iloc)
		}
	})
	return c.prog, c.progErr
}

// Server is the optimization service.
type Server struct {
	cfg   Config
	pool  *Pool
	cache *Cache
	// spellings is the spelling index: spellingDigest of a request →
	// *spelling.  It holds only successfully compiled requests.
	spellings *Cache
	disk      *DiskStore
	metrics   *Metrics
	mux       *http.ServeMux
	hs        *http.Server
	version   string
	versions  map[backendPair]string
	draining  atomic.Bool

	// computeGate, when set (tests only), is invoked at the start of
	// every cache-miss computation — a rendezvous for deterministic
	// single-flight tests.
	computeGate func(key string)
}

// backendPair is one point of the (GVN × PRE) backend product — the
// cache's backend dimension.
type backendPair struct {
	gvn core.GVNBackend
	pre core.PREBackend
}

// New assembles a server (pool, cache, disk store, metrics, routes); it
// does not listen yet.  It fails only when a configured CacheDir cannot
// be opened.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg.withDefaults(), version: core.PipelineVersion()}
	// Per-combination pipeline versions, each folded into the cache
	// keys of the requests that select that backend pair: results
	// computed by one backend combination can never answer for another.
	s.versions = make(map[backendPair]string, len(core.GVNBackends)*len(core.PREBackends))
	for _, g := range core.GVNBackends {
		for _, p := range core.PREBackends {
			s.versions[backendPair{g, p}] = core.PipelineVersionFor(g, p)
		}
	}
	s.pool = NewPool(s.cfg.Workers, s.cfg.Queue)
	s.cache = NewCache(s.cfg.CacheSize)
	s.spellings = NewCache(s.cfg.CacheSize)
	s.metrics = NewMetrics(s.pool.QueueDepth)
	if s.cfg.CacheDir != "" {
		disk, err := OpenDiskStore(s.cfg.CacheDir, s.cfg.DiskCacheBytes, s.cfg.DiskFsync)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.disk.onCorrupt = func() { s.metrics.diskCorrupt.Add(1) }
		s.warm()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/optimize", s.handleOptimize)
	s.mux.HandleFunc("/optimize/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/levels", s.handleLevels)
	s.mux.Handle("/debug/vars", s.metrics)
	// Live profiling of the daemon: the stock pprof handlers hang off
	// the same debug mux, so `go tool pprof host/debug/pprof/heap` (or
	// profile, goroutine, ...) works against a running service.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s, nil
}

// warm pre-loads the hot set — the most recently used disk entries, up
// to the LRU's capacity — into the in-memory cache, so the first pass
// of traffic after a restart hits memory, not disk.
func (s *Server) warm() {
	keys := s.disk.RecentKeys(s.cfg.CacheSize)
	// Oldest of the hot set first, so LRU recency ends up matching disk
	// recency.
	for i := len(keys) - 1; i >= 0; i-- {
		res, ok := s.disk.Get(keys[i])
		if !ok {
			continue
		}
		s.cache.Put(keys[i], &cachedResult{iloc: res.ILOC, staticOps: res.StaticOps, diags: res.Diags})
		s.metrics.diskWarmed.Add(1)
	}
}

// Handler exposes the service's routes, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counters, for tests and the bench harness.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Version is the pipeline version folded into every cache key.
func (s *Server) Version() string { return s.version }

// Disk exposes the persistent store (nil without CacheDir), for tests.
func (s *Server) Disk() *DiskStore { return s.disk }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown drains gracefully: liveness flips to 503, the listener
// closes, in-flight HTTP requests complete (bounded by ctx), and the
// worker pool drains.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.hs.Shutdown(ctx)
	s.pool.Close()
	return err
}

// Run serves on l until ctx is cancelled (the daemon hands Run a
// signal-bound context, so SIGTERM lands here), then drains gracefully
// within Config.DrainTimeout.  It returns nil after a clean drain.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- s.hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.Shutdown(sctx)
	if serr := <-errc; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// reqSpec is one parsed, validated, keyed optimization request — the
// unit the cache/pool layers work on, shared by the single and batch
// transports.
type reqSpec struct {
	src     string
	prog    *ir.Program // compiled src; nil when the key came from the spelling index
	lang    string
	level   core.Level
	gvn     core.GVNBackend
	pre     core.PREBackend
	checked bool
	run     *runCall
	key     string
}

// spelling is what the spelling index records for one request
// spelling: the cache key and resolved language prepare computed.
type spelling struct {
	key  string
	lang string
}

// spellingDigest hashes everything that determines a request's cache
// key — the GVN/PRE pair's pipeline version, the requested language,
// the level, checked mode and the source exactly as sent — into the
// spelling index's key.  Each string is length-prefixed, so no two
// field tuples share an encoding.
func spellingDigest(version, langName string, level core.Level, checked bool, src string) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	for _, f := range [...]string{version, langName, string(level), src} {
		h.Write(binary.AppendUvarint(buf[:0], uint64(len(f))))
		io.WriteString(h, f)
	}
	if checked {
		h.Write([]byte{1})
	}
	return string(h.Sum(nil))
}

// prepare validates one OptimizeRequest into a reqSpec.  All failures
// here are the client's fault (HTTP 400).  A request spelled exactly
// like an earlier one takes its key and language from the spelling
// index without compiling; otherwise prepare compiles the source,
// keys its canonical ILOC and records the spelling.
func (s *Server) prepare(req *OptimizeRequest) (*reqSpec, error) {
	levelName := req.Level
	if levelName == "" {
		levelName = "reassoc"
	}
	level, err := core.ParseLevel(levelName)
	if err != nil {
		return nil, err
	}
	gvnBackend, err := core.ParseGVNBackend(req.GVN)
	if err != nil {
		return nil, err
	}
	preBackend, err := core.ParsePREBackend(req.PRE)
	if err != nil {
		return nil, err
	}
	spec := &reqSpec{
		src:     req.Source,
		level:   level,
		gvn:     gvnBackend,
		pre:     preBackend,
		checked: req.Check,
	}
	if req.Run != nil {
		if spec.run, err = parseRun(req.Run); err != nil {
			return nil, err
		}
	}
	langName := req.Lang
	if langName == "" {
		langName = req.Format // legacy field
	}
	version := s.versions[backendPair{gvnBackend, preBackend}]
	digest := spellingDigest(version, langName, level, req.Check, req.Source)
	if v, ok := s.spellings.Get(digest); ok {
		s.metrics.spellingHits.Add(1)
		sp := v.(*spelling)
		spec.key, spec.lang = sp.key, sp.lang
		return spec, nil
	}
	spec.prog, spec.lang, err = lang.Compile(req.Source, langName)
	if err != nil {
		return nil, err
	}
	spec.key = CacheKey(spec.prog.String(), spec.lang, string(level), version, req.Check)
	s.spellings.Put(digest, &spelling{key: spec.key, lang: spec.lang})
	return spec, nil
}

// localOutcome reports how serveLocal satisfied a request, for the
// response's cache-provenance fields.
type localOutcome struct {
	hit     bool // in-memory cache hit
	shared  bool // coalesced onto a concurrent identical computation
	diskHit bool // answered from the persistent store without recompute
}

// serveLocal answers one spec from this server: memory cache, then the
// in-flight table, then the disk store, then an actual optimization on
// the pool (written back to disk).  `admitted` selects the pool
// admission policy: false sheds with ErrQueueFull when the queue is
// full (single requests), true blocks for a slot (batch items, which
// were admitted as part of their batch).
func (s *Server) serveLocal(ctx context.Context, spec *reqSpec, admitted bool) (*cachedResult, localOutcome, error) {
	var out localOutcome
	val, hit, shared, err := s.cache.Do(ctx, spec.key, func() (any, error) {
		if gate := s.computeGate; gate != nil {
			gate(spec.key)
		}
		if res, ok := s.disk.Get(spec.key); ok {
			out.diskHit = true
			s.metrics.diskHits.Add(1)
			return &cachedResult{iloc: res.ILOC, staticOps: res.StaticOps, diags: res.Diags}, nil
		}
		s.metrics.cacheMisses.Add(1)
		var (
			res  *cachedResult
			oerr error
			ran  bool
		)
		job := func(ctx context.Context) {
			ran = true
			res, oerr = s.optimize(ctx, spec)
		}
		var perr error
		if admitted {
			perr = s.pool.DoWait(ctx, job)
		} else {
			perr = s.pool.Do(ctx, job)
		}
		if perr != nil {
			if errors.Is(perr, ErrJobPanicked) {
				s.metrics.jobPanics.Add(1)
			}
			return nil, perr
		}
		if !ran {
			// The pool skipped the job because the context expired
			// while it was queued.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, errors.New("serve: job skipped")
		}
		if oerr != nil {
			return nil, oerr
		}
		if s.disk != nil {
			if derr := s.disk.Put(spec.key, &storedResult{ILOC: res.iloc, StaticOps: res.staticOps, Diags: res.diags}); derr == nil {
				s.metrics.diskWrites.Add(1)
			}
		}
		return res, nil
	})
	out.hit, out.shared = hit, shared
	switch {
	case hit:
		s.metrics.cacheHits.Add(1)
	case shared:
		s.metrics.shared.Add(1)
	}
	if err != nil {
		return nil, out, err
	}
	return val.(*cachedResult), out, nil
}

// optimize is the cache-miss path, executed on a pool worker.  A spec
// keyed from the spelling index arrives without its program, and its
// source is compiled here, in the language it resolved to before.
func (s *Server) optimize(ctx context.Context, spec *reqSpec) (*cachedResult, error) {
	prog := spec.prog
	if prog == nil {
		var err error
		if prog, _, err = lang.Compile(spec.src, spec.lang); err != nil {
			return nil, err
		}
	}
	opts := core.OptimizeOptions{
		Ctx:    ctx,
		OnPass: s.metrics.ObservePass,
		GVN:    spec.gvn,
		PRE:    spec.pre,
	}
	if spec.checked {
		passes, err := core.Passes(core.PassNamesWith(spec.level, spec.gvn, spec.pre)...)
		if err != nil {
			return nil, err
		}
		out, diags, err := core.CheckedRun(prog, passes, opts, core.CheckConfig{Validate: true})
		if err != nil {
			return nil, err
		}
		msgs := make([]string, len(diags))
		for i, d := range diags {
			msgs[i] = d.String()
		}
		return &cachedResult{iloc: out.String(), staticOps: out.InstrCount(), diags: msgs, prog: out}, nil
	}
	out, err := core.OptimizeWith(prog, spec.level, opts)
	if err != nil {
		return nil, err
	}
	return &cachedResult{iloc: out.String(), staticOps: out.InstrCount(), prog: out}, nil
}

// respond builds the wire response for a locally served spec, running
// the optional interpretation.
func (s *Server) respond(ctx context.Context, spec *reqSpec, res *cachedResult, out localOutcome) (*OptimizeResponse, error) {
	resp := &OptimizeResponse{
		Key:         spec.key,
		Cached:      out.hit,
		Shared:      out.shared,
		DiskCached:  out.diskHit,
		Level:       string(spec.level),
		Lang:        spec.lang,
		GVN:         string(spec.gvn),
		PRE:         string(spec.pre),
		ILOC:        res.iloc,
		StaticOps:   res.staticOps,
		Diagnostics: res.diags,
	}
	if spec.run != nil {
		prog, err := res.program()
		if err != nil {
			return nil, err
		}
		rr, err := runProgram(ctx, prog, spec.run)
		if err != nil {
			return nil, err
		}
		resp.Run = rr
	}
	return resp, nil
}
