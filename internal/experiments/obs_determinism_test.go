package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestMetricsDoNotChangeResults pins the plane's zero-interference
// contract on every registry entry: attaching a live registry, flood-trace
// recorder and window log must leave the result byte-identical to a bare
// run, and the plane must record something.
//
// Not parallel: plane runs install process-global instrumentation.
func TestMetricsDoNotChangeResults(t *testing.T) {
	for _, r := range Runners {
		t.Run(r.Name, func(t *testing.T) {
			bare, inst := memoRun(t, r, 8, false), memoRun(t, r, 8, true)
			if !bytes.Equal(bare.result, inst.result) {
				t.Fatalf("attaching the observability plane changed the result:\n%s\nvs\n%s",
					bare.result, inst.result)
			}
			if len(inst.manifest.Metrics.Metrics) == 0 {
				t.Fatal("instrumented run recorded no metrics")
			}
		})
	}
}

// TestMetricsSnapshotWorkerInvariance pins the other half of the contract:
// with the plane enabled, every entry's metrics snapshot, sampled flood
// traces and windows — the manifest fingerprint — are identical at 1 and 8
// workers.
func TestMetricsSnapshotWorkerInvariance(t *testing.T) {
	for _, r := range Runners {
		t.Run(r.Name, func(t *testing.T) {
			if why, ok := workerExempt[r.Name]; ok {
				t.Skip(why)
			}
			m1, m8 := memoRun(t, r, 1, true).manifest, memoRun(t, r, 8, true).manifest
			snap1, err := json.Marshal(m1.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			snap8, err := json.Marshal(m8.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap1, snap8) {
				t.Fatalf("metrics snapshot diverged between workers=1 and workers=8:\n%s\nvs\n%s", snap1, snap8)
			}
			if m1.Fingerprint != m8.Fingerprint {
				t.Fatalf("manifest fingerprint (metrics, %d vs %d flood traces, %d vs %d window series) diverged between workers=1 and workers=8: %s vs %s",
					len(m1.FloodTraces), len(m8.FloodTraces), len(m1.Windows), len(m8.Windows), m1.Fingerprint, m8.Fingerprint)
			}
		})
	}
}
