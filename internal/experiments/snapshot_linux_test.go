//go:build linux

package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestObjectTraceUnmapsSnapshot: ObjectTrace keeps only the crawl's trace,
// whose names are decoded copies, so the snapshot mapping a save or a load
// opened must be gone from the process once it returns rather than pinned
// for the life of the process.
func TestObjectTraceUnmapsSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "tiny.qcsnap")
	mapped := func() bool {
		t.Helper()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(maps, []byte(snap))
	}
	save := NewEnv(ScaleTiny, 42)
	save.SnapshotSave = snap
	load := NewEnv(ScaleTiny, 42)
	load.SnapshotLoad = snap
	for _, e := range []*Env{save, load} {
		if _, _, err := e.ObjectTrace(); err != nil {
			t.Fatal(err)
		}
		if mapped() {
			t.Fatalf("the snapshot is still mapped after ObjectTrace returned (save=%q load=%q)", e.SnapshotSave, e.SnapshotLoad)
		}
	}
}
