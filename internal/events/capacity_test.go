package events

import (
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"querycentric/internal/capacity"
	"querycentric/internal/churn"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/parallel"
)

// capacityScenario is a flash-crowd config with a tight bounded-capacity
// plane attached: small queues, slow service, retries on untimely answers.
func capacityScenario(seed uint64, pol capacity.Policy, workers int) ScenarioConfig {
	cfg := shortScenario(FlashCrowd, seed)
	cfg.Flash = &FlashConfig{Start: 1200, End: 2400, Frac: 0.5, Boost: 3}
	cfg.Workers = workers
	cfg.QueryRetries = 1
	ccfg := capacity.DefaultConfig(seed)
	ccfg.QueueDepth = 8
	ccfg.Policy = pol
	ccfg.Breakers = pol == capacity.TTLAware
	cfg.Capacity = &ccfg
	return cfg
}

// TestCapacityScenarioWorkerInvariant extends the schedule-invariance
// contract to the overload plane: the full windowed result — shed counts,
// breaker transitions, retried queries and all — must be byte-identical
// across reruns and worker counts, for every shedding policy.
func TestCapacityScenarioWorkerInvariant(t *testing.T) {
	for _, pol := range []capacity.Policy{capacity.DropTail, capacity.RED, capacity.TTLAware} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			run := func(workers int) []byte {
				cfg := capacityScenario(61, pol, workers)
				res := runScenario(t, testNetwork(t, 61), cfg)
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				return b
			}
			w1a, w1b, w8 := run(1), run(1), run(8)
			if string(w1a) != string(w1b) {
				t.Fatal("identical capacity runs diverged")
			}
			if string(w1a) != string(w8) {
				t.Fatal("worker count changed capacity-enabled scenario output")
			}
			var res ScenarioResult
			if err := json.Unmarshal(w1a, &res); err != nil {
				t.Fatal(err)
			}
			if res.Capacity == nil || res.Capacity.Shed == 0 {
				t.Fatalf("capacity plane never shed under the flash crowd: %+v", res.Capacity)
			}
		})
	}
}

// TestCapacityDisabledIsInert pins the inert-by-default contract at the
// scenario level: a nil Capacity config and a disabled (zero) one must
// produce byte-identical windowed results AND byte-identical enabled-obs
// snapshots — attaching the plane machinery without enabling it changes
// nothing.
func TestCapacityDisabledIsInert(t *testing.T) {
	run := func(cap *capacity.Config) (string, string) {
		cfg := shortScenario(FlashCrowd, 67)
		cfg.Capacity = cap
		cfg.Workers = 2
		nw := testNetwork(t, 67)
		s, err := NewScenario(nw, cfg)
		if err != nil {
			t.Fatalf("NewScenario: %v", err)
		}
		reg := obs.NewRegistry()
		wl := obs.NewWindowLog()
		s.Instrument(reg, wl)
		res, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		wb, err := json.Marshal(wl.Snapshot())
		if err != nil {
			t.Fatalf("marshal windows: %v", err)
		}
		return string(b), string(wb)
	}
	nilRes, nilWin := run(nil)
	zeroRes, zeroWin := run(&capacity.Config{})
	if nilRes != zeroRes {
		t.Fatal("disabled capacity config changed scenario output vs nil")
	}
	if nilWin != zeroWin {
		t.Fatal("disabled capacity config changed window series vs nil")
	}
}

// TestScenarioFloodContextsPerRun pins the scenario's flood pool: a run
// builds one flood context per worker, not one per sub-batch, however many
// CommitEvery sub-batches its query batches split into; and once Run has
// returned, no goroutine of the pool is left.
func TestScenarioFloodContextsPerRun(t *testing.T) {
	var built atomic.Int32
	newFloodCtx = func(nw *gnet.Network) *gnet.FloodCtx {
		built.Add(1)
		return nw.NewFloodCtx()
	}
	defer func() { newFloodCtx = (*gnet.Network).NewFloodCtx }()
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 3} {
		built.Store(0)
		reg := obs.NewRegistry()
		parallel.Instrument(reg)
		runScenario(t, testNetwork(t, 61), capacityScenario(61, capacity.TTLAware, workers))
		parallel.Instrument(nil)
		if sub := reg.Counter("parallel_batches_total").Value(); sub < 10*int64(workers) {
			t.Fatalf("workers=%d: only %d sub-batches ran, too few to tell contexts per run from per sub-batch", workers, sub)
		}
		if b := built.Load(); b != int32(workers) {
			t.Errorf("workers=%d: the run built %d flood contexts, want one per worker", workers, b)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the runs returned, %d before", n, base)
	}
}

// TestScenarioRecordsLegs: with a registry attached, Run records its four
// legs as phases, once each, and they fit inside the run's wall time.
func TestScenarioRecordsLegs(t *testing.T) {
	cfg := capacityScenario(61, capacity.TTLAware, 2)
	tl := churn.DefaultTimelineConfig(61)
	cfg.Churn = &tl
	cfg.Bursts = []faults.Burst{{Time: 1800, Frac: 0.1}}
	s, err := NewScenario(testNetwork(t, 61), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)
	start := time.Now()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	got := map[string]float64{}
	var sum float64
	for _, ph := range reg.Phases() {
		if _, dup := got[ph.Name]; dup {
			t.Errorf("phase %s recorded twice", ph.Name)
		}
		got[ph.Name] = ph.Seconds
		sum += ph.Seconds
	}
	for _, name := range legNames {
		if d, ok := got[name]; !ok || d <= 0 {
			t.Errorf("phase %s: %v s, recorded %v; want a positive time", name, d, ok)
		}
	}
	if len(got) != len(legNames) {
		t.Errorf("recorded phases %v, want exactly %v", got, legNames)
	}
	if sum > wall {
		t.Errorf("legs sum to %.6f s, more than the run's %.6f s", sum, wall)
	}
}
