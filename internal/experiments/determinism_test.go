package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/parallel"
)

// workerExempt names the entries that skip the worker-count legs of the
// gates, each with the reason. They still take the metrics-inertness leg
// and the digest.
var workerExempt = map[string]string{
	"saturation": "its tiny run takes ~5 s; events.TestCapacityScenarioWorkerInvariant " +
		"runs the same flash-crowd scenario, shedding and breakers included, at 1 vs 8 workers",
}

// entryRun is one run of a registry entry at tiny scale, seed 42.
type entryRun struct {
	res    Result
	result []byte // res, marshalled
	// manifest is the observability plane's record of the run (metrics,
	// flood traces, windows); nil for a bare run.
	manifest *obs.Manifest
}

type entryKey struct {
	entry   string
	workers int
	plane   bool
}

// entryRuns memoizes runs across the gates, so each (entry, workers, plane)
// runs once per test binary.
var entryRuns = struct {
	sync.Mutex
	m map[entryKey]*entryOnce
}{m: map[entryKey]*entryOnce{}}

type entryOnce struct {
	once sync.Once
	run  *entryRun
	err  error
}

// memoRun returns the memoized run of r at the given worker count, with the
// observability plane attached or not. Plane runs install process-global
// instrumentation (parallel.Instrument), so only sequential tests ask for
// them.
func memoRun(t *testing.T, r Runner, workers int, plane bool) *entryRun {
	t.Helper()
	entryRuns.Lock()
	g, ok := entryRuns.m[entryKey{r.Name, workers, plane}]
	if !ok {
		g = &entryOnce{}
		entryRuns.m[entryKey{r.Name, workers, plane}] = g
	}
	entryRuns.Unlock()
	g.once.Do(func() { g.run, g.err = runEntry(r, workers, plane) })
	if g.err != nil {
		t.Fatalf("%s at workers=%d (plane %v): %v", r.Name, workers, plane, g.err)
	}
	return g.run
}

// entry looks up a registry entry by name.
func entry(t *testing.T, name string) Runner {
	t.Helper()
	for _, r := range Runners {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no registry entry %q", name)
	return Runner{}
}

// runEntry runs r afresh.
func runEntry(r Runner, workers int, plane bool) (*entryRun, error) {
	e := NewEnv(ScaleTiny, 42)
	e.Workers = workers
	if plane {
		e.Obs, e.FloodTraces, e.Windows = obs.NewRegistry(), obs.NewFloodTraces(0), obs.NewWindowLog()
		parallel.Instrument(e.Obs)
		defer parallel.Instrument(nil)
	}
	res, err := r.Run(e)
	if err != nil {
		return nil, err
	}
	g := &entryRun{res: res}
	if g.result, err = json.Marshal(res); err != nil {
		return nil, err
	}
	if plane {
		g.manifest = &obs.Manifest{
			Command: "qc-sim", Mode: r.Name, Scale: "tiny", Seed: 42, Workers: workers,
			Metrics:     e.Obs.Snapshot(),
			FloodTraces: e.FloodTraces.Snapshot(),
		}
		if e.Windows.Len() > 0 {
			g.manifest.Windows = e.Windows.Snapshot()
		}
		if err := g.manifest.Finalize(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// TestWorkerCountDoesNotChangeResults is the parallel-engine determinism
// regression: every registry entry must marshal byte-identically at one
// worker and at eight. Each trial owns a derived RNG stream and reductions
// walk trial order, so the worker count can only change who executes a
// trial — never what it computes. Stability across repeated runs is
// TestMetricsDoNotChangeResults' bare and plane runs at eight workers: two
// independent runs that must be equal.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	for _, r := range Runners {
		t.Run(r.Name, func(t *testing.T) {
			if why, ok := workerExempt[r.Name]; ok {
				t.Skip(why)
			}
			t.Parallel()
			seq, par := memoRun(t, r, 1, false), memoRun(t, r, 8, false)
			if !bytes.Equal(seq.result, par.result) {
				t.Fatalf("diverged between workers=1 and workers=8:\n%s\nvs\n%s", seq.result, par.result)
			}
		})
	}
	// The parallel build phases introduced with term interning — catalog
	// name generation, the shared dictionary, per-peer posting indexes —
	// must be byte-identical at any worker count.
	t.Run("NetworkConstruction", func(t *testing.T) {
		t.Parallel()
		marshal := func(workers int) []byte {
			e := NewEnv(ScaleTiny, 42)
			e.Workers = workers
			fp, err := networkConstructionFingerprint(e)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			b, err := json.Marshal(fp)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if seq, par := marshal(1), marshal(8); !bytes.Equal(seq, par) {
			t.Fatalf("diverged between workers=1 and workers=8:\n%s\nvs\n%s", seq, par)
		}
	})
}

// networkConstructionFingerprint builds the catalog + network + indexes at
// the environment's worker count and returns everything the worker count
// could conceivably perturb: the per-peer library placements, the shared
// dictionary fingerprint, and the checksum over every peer's flat posting
// index.
func networkConstructionFingerprint(e *Env) (any, error) {
	bcfg := e.P.Population(e.Seed)
	cat, err := catalog.BuildWorkers(bcfg.Catalog, e.Workers)
	if err != nil {
		return nil, err
	}
	nw, err := gnet.NewFromCatalogWorkers(bcfg.Network, cat, e.Workers)
	if err != nil {
		return nil, err
	}
	if err := nw.BuildIndexes(e.Workers); err != nil {
		return nil, err
	}
	sum, err := nw.IndexChecksum()
	if err != nil {
		return nil, err
	}
	st, err := nw.IndexStats()
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"placements":     cat.TotalPlacements,
		"libraries":      cat.Libraries,
		"dict_terms":     nw.TermDict().Len(),
		"dict_checksum":  nw.TermDict().Checksum(),
		"index_checksum": sum,
		"index_stats":    st,
	}, nil
}

// TestRunnerDigests is the refactor gate over every registry entry: the
// sha256 of what qc-sim prints for it — header, table and footer, then its
// summary lines — at -scale tiny -seed 42 must match RUNNER_DIGESTS.txt.
func TestRunnerDigests(t *testing.T) {
	raw, err := os.ReadFile("../../RUNNER_DIGESTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = sum
		}
	}
	if len(want) != len(Runners) {
		t.Errorf("RUNNER_DIGESTS.txt has %d lines, the registry %d entries", len(want), len(Runners))
	}
	for _, r := range Runners {
		t.Run(r.Name, func(t *testing.T) {
			g := memoRun(t, r, 8, false)
			var out bytes.Buffer
			if err := r.Write(&out, g.res); err != nil {
				t.Fatal(err)
			}
			if err := r.WriteSummary(&out, g.res); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want[r.Name] {
				t.Errorf("output differs from RUNNER_DIGESTS.txt; if the change is meant, its line becomes:\n%s %s\noutput:\n%s",
					r.Name, got, out.Bytes())
			}
		})
	}
}
