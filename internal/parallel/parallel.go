// Package parallel is the deterministic trial engine: a bounded worker
// pool that fans independent, index-addressed units of work (simulation
// trials, flood probes, coverage samples) across goroutines and merges
// their results in index order.
//
// Determinism contract: a unit of work may depend only on its index — its
// randomness must come from a per-index stream (rng.Source.Derive of
// "trial/<i>" from a fixed parent), its inputs must be read-only shared
// state, and its mutable scratch must be worker-local. Under that
// contract the merged results are byte-identical for every worker count
// and every scheduling, so experiments can default to GOMAXPROCS workers
// without perturbing published numbers. Reductions that follow a Map must
// walk the result slice in index order; integer sums are order-free but
// floating-point sums are not.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"querycentric/internal/obs"
)

// instr is the process-global observability attachment for the trial
// engine. Generic functions cannot hang methods off a receiver without
// threading a handle through every call site, so instrumentation is
// installed once per process (by the command entry point) via Instrument.
// Batch and unit counts are schedule-invariant: one batch per MapWith or
// MapOn call with work, one unit per index, regardless of worker count.
var instr atomic.Pointer[engineObs]

type engineObs struct {
	batches *obs.Counter // parallel_batches_total: MapWith and MapOn calls with work
	units   *obs.Counter // parallel_map_units_total: indices executed
}

// Instrument publishes engine activity to reg (nil detaches). Intended to
// be called once at process start; tests that install a registry must not
// run in parallel with other tests using the engine.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&engineObs{
		batches: reg.Counter("parallel_batches_total"),
		units:   reg.Counter("parallel_map_units_total"),
	})
}

// Workers resolves a requested worker count: values above zero are taken
// as-is, anything else means "one worker per available CPU" (GOMAXPROCS).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results in index order. A workers value ≤ 0 resolves via
// Workers. If any call fails, Map returns the error of the lowest failing
// index (so the reported error, like the results, is schedule-invariant);
// the remaining indices may or may not have run.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWith(workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// ForEach is Map for side-effect-only work: fn typically writes to its own
// index of a caller-owned slice.
func ForEach(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// ForEachWith is ForEach with per-worker scratch (see MapWith): index
// construction and snapshot encoding reuse one buffer set per worker
// across thousands of units instead of allocating per unit.
func ForEachWith[S any](workers, n int, newScratch func() S, fn func(scratch S, i int) error) error {
	_, err := MapWith(workers, n, newScratch, func(s S, i int) (struct{}, error) {
		return struct{}{}, fn(s, i)
	})
	return err
}

// MapWith is Map with per-worker scratch: newScratch runs once per worker
// goroutine (not per index) and its value is threaded into every fn call
// that worker executes. Use it for reusable state that is expensive to
// allocate per trial and unsafe to share — flood contexts, search
// scratch, encode buffers. It runs a Pool's claim loop on at most n
// fresh goroutines while the caller waits: for one batch that starts
// sooner than a pool whose caller works as worker 0, since the waiting
// caller's thread picks up a worker at once instead of the helper
// waiting for another thread to wake.
func MapWith[S, T any](workers, n int, newScratch func() S, fn func(scratch S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	count(n)
	workers = min(Workers(workers), n)
	if workers == 1 {
		return mapSerial(newScratch(), n, fn)
	}
	out := make([]T, n)
	var c claims[S]
	c.reset(&mapBatch[S, T]{fn: fn, out: out}, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			c.work(newScratch())
		}()
	}
	wg.Wait()
	if c.err != nil {
		return nil, c.err
	}
	return out, nil
}

// count publishes one batch of n units.
func count(n int) {
	if ob := instr.Load(); ob != nil {
		ob.batches.Inc()
		ob.units.Add(int64(n))
	}
}

// mapSerial is the one-worker path: no goroutines, no atomics, stopping at
// the first failure. It is byte-identical to the fanned-out path by the
// determinism contract.
func mapSerial[S, T any](s S, n int, fn func(scratch S, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := range out {
		v, err := fn(s, i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
