package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"querycentric/internal/rng"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS", got)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

// TestMapWorkerCountInvariance is the package-level determinism contract:
// per-index derived randomness merged in index order must be byte-identical
// for every worker count.
func TestMapWorkerCountInvariance(t *testing.T) {
	base := rng.NewNamed(42, "parallel/test")
	run := func(workers int) []uint64 {
		out, err := Map(workers, 500, func(i int) (uint64, error) {
			r := base.Derive(fmt.Sprintf("trial/%d", i))
			// Draw a varying number of values to stress independence.
			v := r.Uint64()
			for k := 0; k < i%5; k++ {
				v ^= r.Uint64()
			}
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8, 33} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from sequential", workers)
		}
	}
}

func TestMapLowestErrorWins(t *testing.T) {
	sentinel := func(i int) error { return fmt.Errorf("fail-%d", i) }
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(workers, 200, func(i int) (int, error) {
			if i%7 == 3 { // lowest failing index is 3
				return 0, sentinel(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Fatalf("workers=%d: error = %v, want fail-3", workers, err)
		}
	}
}

func TestMapWithScratchPerWorker(t *testing.T) {
	var created atomic.Int32
	type scratch struct{ id int32 }
	out, err := MapWith(4, 1000, func() *scratch {
		return &scratch{id: created.Add(1)}
	}, func(s *scratch, i int) (int32, error) {
		return s.id, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := created.Load(); c < 1 || c > 4 {
		t.Fatalf("created %d scratches for 4 workers", c)
	}
	for i, v := range out {
		if v < 1 || v > created.Load() {
			t.Fatalf("out[%d] ran with unknown scratch %d", i, v)
		}
	}
}

func TestForEach(t *testing.T) {
	buf := make([]int, 64)
	if err := ForEach(8, len(buf), func(i int) error {
		buf[i] = i + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != i+1 {
			t.Fatalf("buf[%d] = %d", i, v)
		}
	}
}

// TestParallelEngineRace hammers the pool from parallel subtests so the
// race detector exercises concurrent Map/MapWith instances sharing one
// parent rng (read-only via Derive) and shared read-only inputs.
func TestParallelEngineRace(t *testing.T) {
	shared := make([]uint64, 4096)
	base := rng.NewNamed(7, "parallel/race")
	fill := rng.NewNamed(8, "parallel/race-fill")
	for i := range shared {
		shared[i] = fill.Uint64()
	}
	for sub := 0; sub < 8; sub++ {
		t.Run(fmt.Sprintf("hammer-%d", sub), func(t *testing.T) {
			t.Parallel()
			want, err := Map(1, 256, raceTrial(base, shared))
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				got, err := MapWith(8, 256, func() []uint64 {
					return make([]uint64, 32) // worker-local scratch
				}, func(scr []uint64, i int) (uint64, error) {
					trial := raceTrial(base, shared)
					v, err := trial(i)
					scr[i%len(scr)] = v
					return v, err
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("parallel run diverged under contention")
				}
			}
		})
	}
}

// raceTrial is one deterministic unit of work over shared read-only state.
func raceTrial(base *rng.Source, shared []uint64) func(i int) (uint64, error) {
	return func(i int) (uint64, error) {
		r := base.Derive(fmt.Sprintf("trial/%d", i))
		acc := uint64(0)
		for k := 0; k < 64; k++ {
			acc ^= shared[r.Intn(len(shared))]
		}
		return acc, nil
	}
}

// TestPoolMatchesSerial drives one pool through many batches of random
// sizes, some with failures injected at random indices: every batch's
// outputs and error equal a serial reference's and MapWith's, the pool
// builds each worker's scratch exactly once for its whole life, and after
// Close no goroutine of the pool or of a one-shot MapWith is left.
func TestPoolMatchesSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var built atomic.Int32
			newScratch := func() *[]int {
				built.Add(1)
				s := make([]int, 0, 4)
				return &s
			}
			p := NewPool(workers, newScratch)
			defer p.Close() // on a failure; closing twice does nothing
			r := rng.NewNamed(uint64(workers), "parallel/pool")
			for batch := 0; batch < 300; batch++ {
				n := r.Intn(70)
				fail := map[int]bool{}
				if n > 0 && r.Bool(0.3) {
					for k := 1 + r.Intn(3); k > 0; k-- {
						fail[r.Intn(n)] = true
					}
				}
				fn := func(s *[]int, i int) (uint64, error) {
					*s = append((*s)[:0], i) // worker-local scratch in use
					if fail[i] {
						return 0, fmt.Errorf("batch %d: fail-%d", batch, i)
					}
					// Enough work that helpers join batches mid-way.
					v := uint64(batch)<<32 | uint64(i)
					for k := 0; k < 2000; k++ {
						v = v*6364136223846793005 + 1442695040888963407
					}
					return v, nil
				}
				want, wantErr := serialMap(n, new([]int), fn)
				got, err := MapOn(p, n, fn)
				if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("batch %d (n=%d): MapOn = %v, %v; serial = %v, %v", batch, n, got, err, want, wantErr)
				}
				got, err = MapWith(workers, n, func() *[]int { return new([]int) }, fn)
				if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("batch %d (n=%d): MapWith = %v, %v; serial = %v, %v", batch, n, got, err, want, wantErr)
				}
			}
			p.Close()
			if b := built.Load(); b != int32(workers) {
				t.Errorf("pool built %d scratches for %d workers over 300 batches", b, workers)
			}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after every pool closed, %d before", n, base)
	}
}

// serialMap is the reference MapOn must equal: indices in order, stopping
// at the first failure.
func serialMap[S, T any](n int, s S, fn func(S, int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
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

// TestMapOnAllocatesOnlyOutput pins a warm MapOn's allocations: the output
// slice, nothing else — no goroutine, scratch or batch state per call.
func TestMapOnAllocatesOnlyOutput(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := NewPool(workers, func() []int { return make([]int, 64) })
		fn := func(s []int, i int) (int, error) {
			s[i%len(s)] = i
			return i, nil
		}
		if _, err := MapOn(p, 64, fn); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := MapOn(p, 64, fn); err != nil {
				t.Fatal(err)
			}
		})
		p.Close()
		if allocs != 1 {
			t.Errorf("workers=%d: a warm MapOn allocates %.2f times, want 1 (the output)", workers, allocs)
		}
	}
}
