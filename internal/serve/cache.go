package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"
	"sync/atomic"
)

// CacheKey computes the content-addressed key for an optimization
// request: a SHA-256 over the pipeline version, the resolved source
// language, the optimization recipe (level name plus whether checked
// mode is on) and the canonical ILOC text of the input program.
// Canonical means the parsed-and-reprinted form, so two textual
// spellings of the same ILOC address the same cache slot — but the
// language is a separate dimension: identical canonical ILOC arriving
// as "mf" and as "pl0" (or raw "iloc") occupies distinct slots, so a
// front-end bug in one language can never poison another's cached
// results.  Identical inputs hash identically across processes and
// runs; any change to the pass pipelines changes the version and so
// the key.
func CacheKey(canonicalILOC, lang, level, version string, checked bool) string {
	h := sha256.New()
	io.WriteString(h, version)
	h.Write([]byte{0})
	io.WriteString(h, lang)
	h.Write([]byte{0})
	io.WriteString(h, level)
	h.Write([]byte{0})
	if checked {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte{0})
	io.WriteString(h, canonicalILOC)
	return hex.EncodeToString(h.Sum(nil))
}

type cacheEntry struct {
	key string
	val any
}

type flight struct {
	done    chan struct{}
	waiters atomic.Int64
	val     any
	err     error
}

// Cache is a bounded LRU result cache with single-flight deduplication:
// concurrent Do calls for the same key run the computation exactly
// once, with every other caller waiting on (and sharing) that one
// result.  Errors are returned to all waiters but never cached.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight
}

// NewCache builds a cache holding up to max results (minimum 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:     max,
		ll:      list.New(),
		entries: map[string]*list.Element{},
		flights: map[string]*flight{},
	}
}

// Do returns the value cached under key, or computes it.  hit reports a
// cache hit; shared reports that this caller piggybacked on another
// caller's in-flight computation of the same key.  If ctx expires while
// waiting on another caller, Do returns ctx.Err() (the computation
// itself keeps running and its result is still cached for others).
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (val any, hit, shared bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		val = el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, true, false, nil
	}
	if fl, ok := c.flights[key]; ok {
		fl.waiters.Add(1)
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.val, false, true, fl.err
		case <-ctx.Done():
			return nil, false, true, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	fl.val, fl.err = compute()

	c.mu.Lock()
	delete(c.flights, key)
	if fl.err == nil {
		c.insert(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, false, false, fl.err
}

// Put inserts a precomputed result (the disk-warming path), evicting
// as needed.  It does not disturb any in-flight computation of the same
// key.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	c.insert(key, val)
	c.mu.Unlock()
}

// FlightWaiters reports how many callers are currently waiting on an
// in-flight computation of key — observability for tests that need a
// deterministic single-flight rendezvous.
func (c *Cache) FlightWaiters(key string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.flights[key]; ok {
		return fl.waiters.Load()
	}
	return 0
}

// Get returns the value cached under key, without computing, and
// marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// insert adds a result, evicting the least recently used entry when the
// cache is full.  Caller holds c.mu.
func (c *Cache) insert(key string, val any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}
