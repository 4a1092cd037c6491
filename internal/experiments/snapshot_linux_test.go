//go:build linux

package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestEnvMapsPopulationOnce: an environment maps its population snapshot
// once, on first use, and every network it hands out afterwards — the
// crawl's and each runner's — is a restore of that one mapping, whether
// the snapshot was just saved or loaded.
func TestEnvMapsPopulationOnce(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "tiny.qcsnap")
	mappings := func() int {
		t.Helper()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(maps, []byte(snap))
	}
	save := NewEnv(ScaleTiny, 42)
	save.SnapshotSave = snap
	load := NewEnv(ScaleTiny, 42)
	load.SnapshotLoad = snap
	for i, e := range []*Env{save, load} {
		if _, _, err := e.ObjectTrace(); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := e.newNetwork(); err != nil {
				t.Fatal(err)
			}
		}
		if got := mappings(); got != i+1 {
			t.Fatalf("%d mappings of the snapshot after %d environments each crawled and restored two networks (save=%q load=%q), want %d",
				got, i+1, e.SnapshotSave, e.SnapshotLoad, i+1)
		}
	}
}
