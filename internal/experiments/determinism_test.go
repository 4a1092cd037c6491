package experiments

import (
	"encoding/json"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
)

// TestWorkerCountDoesNotChangeResults is the parallel-engine determinism
// regression: every ported runner must marshal byte-identically at one
// worker and at eight. Each trial owns a derived RNG stream and reductions
// walk trial order, so the worker count can only change who executes a
// trial — never what it computes.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	runners := []struct {
		name string
		run  func(e *Env) (any, error)
	}{
		{"Fig8", func(e *Env) (any, error) { return Fig8(e) }},
		{"TTLCoverage", func(e *Env) (any, error) { return TTLCoverage(e) }},
		{"FaultSweep", func(e *Env) (any, error) {
			// Trim the grid: three rates cover clean, lossy and dead-peer
			// paths without tripling the tiny-scale runtime.
			return FaultSweepWith(e, FaultSweepConfig{
				Rates:    []float64{0, 0.2, 0.4},
				DeadFrac: 0.15,
			})
		}},
		{"QRPEffect", func(e *Env) (any, error) { return QRPEffect(e) }},
		{"WalkVsFlood", func(e *Env) (any, error) { return WalkVsFlood(e) }},
		// ChurnRepair marshals the full repair timeline (per-sample degree
		// and success for both scenarios plus maintenance counters), so
		// this doubles as the golden determinism check on topology repair.
		{"ChurnRepair", func(e *Env) (any, error) { return ChurnRepair(e) }},
		// Recovery marshals the event-engine windowed series of both arms,
		// extending the gate to discrete-event scheduling: interleaved
		// churn/fault/maintenance/query events must produce identical
		// windows at any worker count.
		{"Recovery", func(e *Env) (any, error) { return RecoveryWith(e, tinyRecoveryConfig(e.Seed)) }},
		// QueryCentric marshals all five strategy arms, extending the gate
		// across the adaptive overlay: parallel measurement batches,
		// event-scheduled adaptation rounds, topology rewiring and replica
		// installs must land byte-identically at any worker count.
		{"QueryCentric", func(e *Env) (any, error) { return QueryCentric(e) }},
		// NetworkConstruction covers the parallel build phases introduced
		// with term interning: catalog name generation, the shared
		// dictionary, and per-peer posting indexes must be byte-identical
		// at any worker count.
		{"NetworkConstruction", func(e *Env) (any, error) { return networkConstructionFingerprint(e) }},
	}
	for _, rn := range runners {
		rn := rn
		t.Run(rn.name, func(t *testing.T) {
			t.Parallel()
			marshal := func(workers int) []byte {
				e := NewEnv(ScaleTiny, 42)
				e.Workers = workers
				res, err := rn.run(e)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			seq := marshal(1)
			par := marshal(8)
			if string(seq) != string(par) {
				t.Fatalf("%s diverged between workers=1 and workers=8:\n%s\nvs\n%s",
					rn.name, seq, par)
			}
			// And a repeat at 8 workers is stable run-to-run.
			if again := marshal(8); string(again) != string(par) {
				t.Fatalf("%s not stable across repeated workers=8 runs", rn.name)
			}
		})
	}
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
