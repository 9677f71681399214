package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool errors.
var (
	// ErrQueueFull is returned by Do when the admission queue is at
	// capacity; callers should shed the request (HTTP 503).
	ErrQueueFull = errors.New("serve: worker queue full")
	// ErrPoolClosed is returned by Do after Close.
	ErrPoolClosed = errors.New("serve: pool closed")
	// ErrJobPanicked is wrapped by the error Do and DoWait return when
	// the job panicked; the worker recovers and keeps serving.
	ErrJobPanicked = errors.New("serve: job panicked")
)

type poolJob struct {
	ctx  context.Context
	fn   func(ctx context.Context)
	done chan struct{}
	err  error // set before done closes when fn panicked
}

// Pool is a bounded worker pool with a bounded admission queue: at most
// `workers` jobs run concurrently, and the admission buffer holds
// workers+queue more (sized so a request is never shed while a worker
// sits idle).  A job whose context expires while queued is dropped
// without running.  Close drains gracefully: no new work is admitted,
// everything already queued runs to completion.
type Pool struct {
	mu      sync.RWMutex
	closed  bool
	jobs    chan *poolJob
	quit    chan struct{}
	wg      sync.WaitGroup
	senders sync.WaitGroup
	queued  atomic.Int64
}

// NewPool starts a pool with the given worker and queue bounds
// (minimums of 1 and 0 are enforced).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan *poolJob, workers+queue), quit: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.queued.Add(-1)
		if j.ctx.Err() == nil {
			j.run()
		}
		close(j.done)
	}
}

// run calls the job's function, turning a panic into the job's error.
func (j *poolJob) run() {
	defer func() {
		if v := recover(); v != nil {
			j.err = fmt.Errorf("%w: %v", ErrJobPanicked, v)
		}
	}()
	j.fn(j.ctx)
}

// Do submits fn and waits for it to finish.  It returns ErrQueueFull
// immediately when the queue is at capacity, ErrPoolClosed after Close,
// an error wrapping ErrJobPanicked when fn panicked, and ctx.Err() if
// the context expires before fn completes (fn itself is expected to
// watch ctx and return early; if it is still queued it will be
// skipped).
func (p *Pool) Do(ctx context.Context, fn func(ctx context.Context)) error {
	j := &poolJob{ctx: ctx, fn: fn, done: make(chan struct{})}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrPoolClosed
	}
	p.queued.Add(1)
	select {
	case p.jobs <- j:
		p.mu.RUnlock()
	default:
		p.queued.Add(-1)
		p.mu.RUnlock()
		return ErrQueueFull
	}

	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DoWait submits fn like Do, but blocks for a queue slot instead of
// shedding with ErrQueueFull — the admission policy for work that has
// already been admitted once at a coarser granularity (each item of an
// accepted batch request).  It still returns ErrPoolClosed after Close,
// an error wrapping ErrJobPanicked when fn panicked, and ctx.Err() if
// the context expires while waiting for a slot or for fn to complete.
func (p *Pool) DoWait(ctx context.Context, fn func(ctx context.Context)) error {
	j := &poolJob{ctx: ctx, fn: fn, done: make(chan struct{})}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrPoolClosed
	}
	// Registering as a sender while holding the read lock means Close
	// (which takes the write lock first) always sees us in the senders
	// group before it closes the jobs channel — a blocked DoWait wakes
	// on quit, never sends on a closed channel.
	p.senders.Add(1)
	p.mu.RUnlock()
	defer p.senders.Done()

	p.queued.Add(1)
	select {
	case p.jobs <- j:
	case <-p.quit:
		p.queued.Add(-1)
		return ErrPoolClosed
	case <-ctx.Done():
		p.queued.Add(-1)
		return ctx.Err()
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueueDepth reports how many admitted jobs have not yet started — the
// admission gauge exported on /debug/vars.
func (p *Pool) QueueDepth() int64 { return p.queued.Load() }

// Close stops admission and waits until every already-accepted job has
// run.  It is safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.quit)
	p.mu.Unlock()
	// Blocked DoWait senders have woken on quit; once they are gone the
	// jobs channel can close without racing a send.
	p.senders.Wait()
	close(p.jobs)
	p.wg.Wait()
}
