package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long an idle worker polls, yielding its thread with
// runtime.Gosched between polls, before it parks on a condition variable:
// a helper waiting for the next batch, and the caller waiting for the
// helpers to leave the batch it just finished. A scenario hands its pool a
// sub-batch every few hundred microseconds with a fold of about 30 µs
// between them; a helper that parked at once would pay a thread wake-up
// (over 100 µs on a busy host) per sub-batch.
const spinWindow = 100 * time.Microsecond

// Pool is a persistent fan-out for a sequence of batches (MapOn calls):
// workers−1 helper goroutines plus the calling goroutine as worker 0, each
// with scratch it built once and keeps until Close. Between batches a
// helper spins for spinWindow, then parks. A pool serves one MapOn at a
// time, from the goroutine that owns it; Close stops the helpers and
// returns once they have exited.
type Pool[S any] struct {
	workers int
	scratch S   // worker 0's
	cache   any // the last batch's *mapBatch[S, T], reused by the next of the same T

	// The current batch. MapOn resets it only while no helper is inside
	// a batch (see state), and the helpers that join claim from it.
	claims[S]

	// state counts batch openings and closings: odd while a batch takes
	// helpers, even between batches. A helper joins by counting itself in
	// active and then checking that the batch it saw is still open; MapOn
	// closes the batch before it waits for active to drain, so no helper
	// can be inside a batch whose fields MapOn is about to rewrite.
	state  atomic.Uint64
	active atomic.Int32
	closed atomic.Bool
	mu     sync.Mutex
	wake   sync.Cond // parked helpers wait here for a batch or Close
	idle   sync.Cond // a parked caller waits here for active to drain
	exited sync.WaitGroup
}

// unit runs index i of the current batch on scratch s and stores its
// result; it returns fn's error.
type unit[S any] interface {
	do(s S, i int) error
}

// claims is one batch's claim state, the one claim loop every fanned-out
// batch runs: workers take indices from one counter, and the error of the
// lowest failing index wins.
type claims[S any] struct {
	batch  unit[S]
	n      int
	next   atomic.Int64 // next unclaimed index
	failed atomic.Int64 // lowest failing index + 1 (n+1 = none)
	errMu  sync.Mutex
	err    error // the error of index failed−1
}

// reset makes b, over n indices, the batch to claim from.
func (c *claims[S]) reset(b unit[S], n int) {
	c.batch, c.n, c.err = b, n, nil
	c.next.Store(0)
	c.failed.Store(int64(n) + 1)
}

// work claims and runs indices until none is left below both n and the
// lowest failure.
func (c *claims[S]) work(s S) {
	for {
		i := int(c.next.Add(1)) - 1
		if i >= c.n || int64(i) >= c.failed.Load() {
			return
		}
		if err := c.batch.do(s, i); err != nil {
			// Keep the lowest failing index, so the returned error does
			// not depend on which of two racing failures lands first.
			c.errMu.Lock()
			if int64(i) < c.failed.Load()-1 {
				c.failed.Store(int64(i) + 1)
				c.err = err
			}
			c.errMu.Unlock()
		}
	}
}

// mapBatch is MapOn's typed batch: the pool reaches fn and out through it.
type mapBatch[S, T any] struct {
	fn  func(S, int) (T, error)
	out []T
}

func (b *mapBatch[S, T]) do(s S, i int) error {
	v, err := b.fn(s, i)
	b.out[i] = v
	return err
}

// NewPool starts a pool of Workers(workers) workers: it builds the
// caller's scratch here and starts workers−1 helpers, each of which builds
// its own.
func NewPool[S any](workers int, newScratch func() S) *Pool[S] {
	p := &Pool[S]{workers: Workers(workers)}
	p.wake.L, p.idle.L = &p.mu, &p.mu
	p.exited.Add(p.workers - 1)
	for range p.workers - 1 {
		go p.helper(newScratch)
	}
	p.scratch = newScratch()
	return p
}

// Close stops the helpers and returns once they have exited. The pool
// must not be used afterwards; closing again does nothing.
func (p *Pool[S]) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	p.wake.Broadcast()
	p.mu.Unlock()
	p.exited.Wait()
}

// MapOn is Map on a pool: fn(scratch, i) runs for every i in [0, n) on the
// pool's workers with their own scratch, and the results come back in
// index order. The error contract is Map's: the error of the lowest
// failing index, the remaining indices run or not. A warm MapOn allocates
// only its output slice.
func MapOn[S, T any](p *Pool[S], n int, fn func(scratch S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	count(n)
	if p.workers == 1 {
		return mapSerial(p.scratch, n, fn)
	}
	b, ok := p.cache.(*mapBatch[S, T])
	if !ok {
		b = &mapBatch[S, T]{}
		p.cache = b
	}
	out := make([]T, n)
	b.fn, b.out = fn, out
	err := p.run(b, n)
	b.fn, b.out = nil, nil // keep nothing of the caller's alive
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run executes one batch of n indices on the caller and the helpers and
// returns its error.
func (p *Pool[S]) run(b unit[S], n int) error {
	p.reset(b, n)
	p.state.Add(1) // open
	p.mu.Lock()
	p.wake.Broadcast()
	p.mu.Unlock()
	p.work(p.scratch)
	p.state.Add(1) // closed: helpers that have not joined yet never will
	if !spin(func() bool { return p.active.Load() == 0 }) {
		p.mu.Lock()
		for p.active.Load() > 0 {
			p.idle.Wait()
		}
		p.mu.Unlock()
	}
	p.batch = nil
	return p.err
}

// helper is worker w ≥ 1: it builds its scratch, then joins every batch
// it sees open until Close.
func (p *Pool[S]) helper(newScratch func() S) {
	defer p.exited.Done()
	s := newScratch()
	var seen uint64 // state of the last batch this helper saw open
	fresh := func() bool {
		st := p.state.Load()
		return p.closed.Load() || (st&1 == 1 && st != seen)
	}
	for {
		if !spin(fresh) {
			p.mu.Lock()
			for !fresh() {
				p.wake.Wait()
			}
			p.mu.Unlock()
		}
		if p.closed.Load() {
			return
		}
		st := p.state.Load()
		if st&1 == 0 {
			continue // closed again before this helper looked
		}
		seen = st
		p.active.Add(1)
		if p.state.Load() == st {
			p.work(s)
		}
		if p.active.Add(-1) == 0 {
			p.mu.Lock()
			p.idle.Broadcast()
			p.mu.Unlock()
		}
	}
}

// spin polls done for up to spinWindow, yielding between polls, and
// reports whether it came true.
func spin(done func() bool) bool {
	deadline := time.Now().Add(spinWindow)
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}
