package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minift"
)

const keySrc = `
func driver(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + i * n
    }
    return s
}
`

// TestCacheKeyStability: identical inputs hash identically across
// independent computations; levels, checked mode, the pipeline
// version and the source language all separate keys.
func TestCacheKeyStability(t *testing.T) {
	version := core.PipelineVersion()
	canon := func() string {
		p, err := minift.Compile(keySrc)
		if err != nil {
			t.Fatal(err)
		}
		return p.String()
	}
	k1 := CacheKey(canon(), "mf", "reassociation", version, false)
	k2 := CacheKey(canon(), "mf", "reassociation", version, false)
	if k1 != k2 {
		t.Errorf("identical input produced distinct keys:\n%s\n%s", k1, k2)
	}
	if kOther := CacheKey(canon(), "mf", "baseline", version, false); kOther == k1 {
		t.Error("distinct levels share a key")
	}
	if kChecked := CacheKey(canon(), "mf", "reassociation", version, true); kChecked == k1 {
		t.Error("checked and unchecked mode share a key")
	}
	if kVer := CacheKey(canon(), "mf", "reassociation", "other-version", false); kVer == k1 {
		t.Error("distinct pipeline versions share a key")
	}
	if kLang := CacheKey(canon(), "pl0", "reassociation", version, false); kLang == k1 {
		t.Error("distinct source languages share a key")
	}
	if len(k1) != 64 {
		t.Errorf("key is not a hex SHA-256: %q", k1)
	}
}

// TestPipelineVersionStable: the fingerprint is deterministic within a
// process (and, being a pure function of the pass tables, across
// processes).
func TestPipelineVersionStable(t *testing.T) {
	if a, b := core.PipelineVersion(), core.PipelineVersion(); a != b {
		t.Errorf("PipelineVersion not stable: %q vs %q", a, b)
	}
}

// TestCacheSingleFlight: 100 concurrent Do calls for one key run the
// computation exactly once; everyone gets the same value.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	var computes atomic.Int64
	release := make(chan struct{})

	const callers = 100
	var wg sync.WaitGroup
	vals := make([]any, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, _, errs[i] = c.Do(context.Background(), "k", func() (any, error) {
				computes.Add(1)
				<-release // hold the flight open until all callers queue up
				return "result", nil
			})
		}(i)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want exactly 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != "result" {
			t.Errorf("caller %d got %v", i, vals[i])
		}
	}
	// A later call is a plain cache hit.
	v, hit, shared, err := c.Do(context.Background(), "k", func() (any, error) {
		t.Error("cache hit must not recompute")
		return nil, nil
	})
	if err != nil || !hit || shared || v != "result" {
		t.Errorf("hit=%v shared=%v v=%v err=%v", hit, shared, v, err)
	}
}

// TestCacheErrorNotCached: a failed computation is reported but not
// cached; the next call recomputes.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, _, err := c.Do(context.Background(), "k", func() (any, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("errors must not be cached: %d compute calls, want 2", calls)
	}
}

// TestCacheLRUEviction: the cache holds at most max entries, evicting
// the least recently used.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	put := func(k string) {
		if _, _, _, err := c.Do(context.Background(), k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("a") // refresh a: b is now LRU
	put("c") // evicts b
	if c.Len() != 2 {
		t.Errorf("len=%d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be cached", k)
		}
	}
}

// TestPoolBounds: the pool runs at most `workers` jobs concurrently and
// sheds load once both workers are busy and the admission buffer is
// full.
func TestPoolBounds(t *testing.T) {
	const workers, queue = 2, 1
	p := NewPool(workers, queue)
	defer p.Close()

	var running, peak atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{}, workers)
	job := func(ctx context.Context) {
		if r := running.Add(1); r > peak.Load() {
			peak.Store(r)
		}
		started <- struct{}{}
		<-block
		running.Add(-1)
	}

	var wg sync.WaitGroup
	// Occupy both workers.
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), job); err != nil {
				t.Errorf("worker job: %v", err)
			}
		}()
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	// Fill the admission buffer (capacity workers+queue).
	buffered := workers + queue
	for i := 0; i < buffered; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func(ctx context.Context) {}); err != nil {
				t.Errorf("buffered job: %v", err)
			}
		}()
	}
	waitDepth(t, p, int64(buffered))
	// One more must be shed, deterministically.
	if err := p.Do(context.Background(), func(ctx context.Context) {}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("want ErrQueueFull, got %v", err)
	}
	close(block)
	wg.Wait()
	if pk := peak.Load(); pk > workers {
		t.Errorf("peak concurrency %d, want <= %d", pk, workers)
	}
}

// waitDepth blocks until the pool's queue gauge reaches want.
func waitDepth(t *testing.T, p *Pool, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.QueueDepth() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d, want %d", p.QueueDepth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolClosedRejects: after Close, Do fails fast with ErrPoolClosed.
func TestPoolClosedRejects(t *testing.T) {
	p := NewPool(1, 0)
	p.Close()
	err := p.Do(context.Background(), func(ctx context.Context) {})
	if !errors.Is(err, ErrPoolClosed) {
		t.Errorf("want ErrPoolClosed, got %v", err)
	}
}

// TestPoolSkipsExpired: a job whose context is already done when a
// worker picks it up never runs.
func TestPoolSkipsExpired(t *testing.T) {
	p := NewPool(1, 4)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Do(context.Background(), func(ctx context.Context) { close(started); <-block })
	}()
	<-started // the only worker is now busy

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired when submitted
	ran := make(chan struct{}, 1)
	derr := p.Do(ctx, func(ctx context.Context) { ran <- struct{}{} })
	if !errors.Is(derr, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", derr)
	}
	close(block)
	wg.Wait()
	p.Close() // drain: the cancelled job must have been skipped
	select {
	case <-ran:
		t.Error("expired job ran anyway")
	default:
	}
}

// TestPoolContainsPanic: a panicking job on a one-worker pool is
// reported as ErrJobPanicked, through Do and DoWait alike, and the same
// worker goes on to run the next job normally.
func TestPoolContainsPanic(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()
	ctx := context.Background()
	boom := func(ctx context.Context) { panic("boom") }
	if err := p.Do(ctx, boom); !errors.Is(err, ErrJobPanicked) {
		t.Errorf("Do: want ErrJobPanicked, got %v", err)
	}
	if err := p.DoWait(ctx, boom); !errors.Is(err, ErrJobPanicked) {
		t.Errorf("DoWait: want ErrJobPanicked, got %v", err)
	}
	ran := false
	if err := p.Do(ctx, func(ctx context.Context) { ran = true }); err != nil || !ran {
		t.Errorf("next job after a panic: err=%v ran=%v", err, ran)
	}
}

// TestStatusFor pins the serving-error → HTTP status mapping.
func TestStatusFor(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{ErrQueueFull, http.StatusServiceUnavailable},
		{ErrPoolClosed, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("before pass pre: %w", context.Canceled), http.StatusGatewayTimeout},
		{fmt.Errorf("%w: boom", ErrJobPanicked), http.StatusInternalServerError},
		{errors.New("after pass gvn: bad"), http.StatusUnprocessableEntity},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func ExampleCacheKey() {
	k := CacheKey("program globalsize=0\n", "iloc", "baseline", "v1", false)
	fmt.Println(len(k))
	// Output: 64
}
