package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/serve"
)

// replayer re-serves requests through the service's public pieces in
// the server's order — JSON decode, lang.Compile, canonical print and
// serve.CacheKey, Cache.Do, DiskStore.Get, Pool.Do, the pass pipeline,
// JSON encode — with a span around each.
type replayer struct {
	cache   *serve.Cache
	disk    *serve.DiskStore
	pool    *serve.Pool
	version string
	refs    []string
}

// replayed is what the replay's cache holds per key.
type replayed struct {
	iloc      string
	staticOps int
}

// replayServe replays reqs from clientCount clients over a disk store
// at dir (warming a fresh LRU from it when warm is set) and records the
// per-layer times into rep.  Every item must come back byte-identical
// to its direct optimization in refs.
func replayServe(rep *report, reqs []request, refs []string, dir string, warm bool) error {
	disk, err := serve.OpenDiskStore(dir, 0, false)
	if err != nil {
		return err
	}
	rp := &replayer{
		cache:   serve.NewCache(256),
		disk:    disk,
		pool:    serve.NewPool(runtime.GOMAXPROCS(0), 64),
		version: core.PipelineVersion(),
		refs:    refs,
	}
	defer rp.pool.Close()
	if warm {
		// The server's warm-up: the most recent disk entries, oldest
		// first, so LRU recency matches disk recency.
		keys := disk.RecentKeys(256)
		for i := len(keys) - 1; i >= 0; i-- {
			if res, ok := disk.Get(keys[i]); ok {
				rp.cache.Put(keys[i], &replayed{res.ILOC, res.StaticOps})
			}
		}
	}

	var (
		next  atomic.Int64
		mu    sync.Mutex
		total = newTracer()
		items int
		errs  []error
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newTracer()
			n := 0
			var err error
			for err == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				n += len(reqs[i].items)
				err = rp.request(t, reqs[i])
			}
			mu.Lock()
			total.merge(t)
			items += n
			errs = append(errs, err)
			mu.Unlock()
		}()
	}
	wg.Wait()
	rep.tracedWall = time.Since(start).Seconds()
	rep.tracedItems = items
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for k, v := range total.layers(items) {
		rep.layers[k] = v
	}
	return nil
}

// request replays one HTTP request.  Batch items run concurrently, as
// the server runs them, each with its own tracer.
func (rp *replayer) request(t *tracer, r request) error {
	if !r.batch {
		t.begin("serve.transport.decode")
		var req serve.OptimizeRequest
		err := json.Unmarshal(r.body, &req)
		t.end()
		if err != nil {
			return err
		}
		resp, err := rp.item(t, &req, r.items[0])
		if err != nil {
			return err
		}
		return encode(t, resp)
	}

	t.begin("serve.transport.decode")
	var req serve.BatchRequest
	err := json.Unmarshal(r.body, &req)
	t.end()
	if err != nil {
		return err
	}
	resp := &serve.BatchResponse{Items: make([]serve.BatchItemResult, len(req.Items))}
	tracers := make([]*tracer, len(req.Items))
	errs := make([]error, len(req.Items))
	var wg sync.WaitGroup
	for i := range req.Items {
		tracers[i] = newTracer()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Items[i].Index = i
			resp.Items[i].OptimizeResponse, errs[i] = rp.item(tracers[i], &req.Items[i], r.items[i])
		}(i)
	}
	wg.Wait()
	for _, it := range tracers {
		t.merge(it)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return encode(t, resp)
}

// encode renders a reply as the server does.
func encode(t *tracer, v any) error {
	t.begin("serve.transport.encode")
	defer t.end()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// item replays one optimization request: compile, key, look up memory
// then disk, and on a miss optimize on the pool.
func (rp *replayer) item(t *tracer, req *serve.OptimizeRequest, idx int) (*serve.OptimizeResponse, error) {
	level, err := core.ParseLevel(req.Level)
	if err != nil {
		return nil, err
	}
	t.begin("lang.compile")
	prog, langName, err := lang.Compile(req.Source, req.Lang)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("ir.print")
	canon := prog.String()
	t.end()
	t.begin("serve.cache.key")
	key := serve.CacheKey(canon, langName, string(level), rp.version, false)
	t.end()

	t.begin("serve.cache.lookup")
	val, hit, shared, err := rp.cache.Do(context.Background(), key, func() (any, error) {
		t.begin("serve.disk.get")
		res, ok := rp.disk.Get(key)
		t.end()
		if ok {
			return &replayed{res.ILOC, res.StaticOps}, nil
		}
		var (
			out     *replayed
			oerr    error
			started bool
		)
		t.begin("serve.pool.wait")
		perr := rp.pool.Do(context.Background(), func(context.Context) {
			t.end() // queue wait: submit → start
			started = true
			t.begin("serve.optimize")
			defer t.end()
			opt, err := t.optimize(prog, config{level, core.GVNAWZ, core.PREDrechsler})
			if err != nil {
				oerr = err
				return
			}
			t.begin("ir.print")
			out = &replayed{opt.String(), opt.InstrCount()}
			t.end()
		})
		if !started {
			t.end()
		}
		if perr != nil {
			return nil, perr
		}
		return out, oerr
	})
	t.end()
	if err != nil {
		return nil, err
	}
	res := val.(*replayed)
	if res.iloc != rp.refs[idx] {
		return nil, fmt.Errorf("replayed item %d differs from direct optimization", idx)
	}
	return &serve.OptimizeResponse{
		Key:       key,
		Cached:    hit,
		Shared:    shared,
		Level:     string(level),
		Lang:      langName,
		GVN:       string(core.GVNAWZ),
		PRE:       string(core.PREDrechsler),
		ILOC:      res.iloc,
		StaticOps: res.staticOps,
	}, nil
}
