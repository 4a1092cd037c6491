package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"querycentric/internal/snapshot"
)

// TestSnapshotRoundTripMatchesFreshBuild is the persistence leg of the
// determinism gate: an environment restored from a snapshot must produce
// figures byte-identical to the environment that saved it. The crawl runs
// against the restored network, so this exercises the full substrate —
// topology, firewalled mask, libraries, dictionary and posting indexes —
// not just the serializer.
func TestSnapshotRoundTripMatchesFreshBuild(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "tiny.qcsnap")

	fingerprint := func(e *Env) []byte {
		t.Helper()
		tr, stats, err := e.ObjectTrace()
		if err != nil {
			t.Fatal(err)
		}
		f1, err := Fig1(e)
		if err != nil {
			t.Fatal(err)
		}
		// Counts is an unordered map spill; sort before fingerprinting.
		counts := append([]int(nil), f1.Report.Counts...)
		sort.Ints(counts)
		f7, err := Fig7(e)
		if err != nil {
			t.Fatal(err)
		}
		// Fold the full record sequence — order included — so the restored
		// network's crawl must match the fresh one observation for
		// observation, not just in aggregate.
		rh := fnv.New64a()
		for _, rec := range tr.Records {
			fmt.Fprintf(rh, "%d\x00%s\x00", rec.Peer, rec.Name)
		}
		b, err := json.Marshal(map[string]any{
			"records":        len(tr.Records),
			"record_hash":    rh.Sum64(),
			"stats":          stats,
			"fig1_label":     f1.Label,
			"fig1_unique":    f1.Report.Unique,
			"fig1_single":    f1.SingletonFrac,
			"fig1_at37":      f1.FracAtMost37,
			"fig1_counts":    counts,
			"fig1_rank_freq": f1.RankFreq,
			"fig7":           f7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	want := fingerprint(NewEnv(ScaleTiny, 42))
	fresh := NewEnv(ScaleTiny, 42)
	fresh.SnapshotSave = snap
	if got := fingerprint(fresh); string(got) != string(want) {
		t.Fatalf("environment built into a named snapshot diverged from the default build:\n%s\nvs\n%s", got, want)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	loaded := NewEnv(ScaleTiny, 42)
	loaded.SnapshotLoad = snap
	if got := fingerprint(loaded); string(got) != string(want) {
		t.Fatalf("snapshot-restored environment diverged from fresh build:\n%s\nvs\n%s", got, want)
	}

	// A resave of what was just restored must be byte-identical to the
	// original file: the snapshot is a fixed point.
	resnap := filepath.Join(t.TempDir(), "again.qcsnap")
	resave := NewEnv(ScaleTiny, 42)
	resave.SnapshotLoad = snap
	resave.SnapshotSave = resnap
	if _, _, err := resave.ObjectTrace(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resnap)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("resaving a restored network changed the snapshot (%d vs %d bytes)", len(b), len(a))
	}
}

// TestSnapshotLoadFailsLoudlyInEnv: a damaged snapshot must abort every
// consumer of the environment's population — the crawl, a runner, a bare
// runner network — with a typed snapshot error, never fall back to a
// silent rebuild.
func TestSnapshotLoadFailsLoudlyInEnv(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "tiny.qcsnap")
	e := NewEnv(ScaleTiny, 42)
	e.SnapshotSave = snap
	if _, _, err := e.ObjectTrace(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := func() *Env {
		e := NewEnv(ScaleTiny, 42)
		e.SnapshotLoad = snap
		return e
	}
	crawlEnv := bad()
	_, _, crawlErr := crawlEnv.ObjectTrace()
	_, sweepErr := FaultSweepWith(bad(), FaultSweepConfig{Rates: []float64{0}})
	_, netErr := crawlEnv.newNetwork() // the population stays open after a failed restore
	for name, err := range map[string]error{"ObjectTrace": crawlErr, "FaultSweepWith": sweepErr, "newNetwork": netErr} {
		if err == nil {
			t.Errorf("%s accepted a corrupted snapshot", name)
			continue
		}
		typed := false
		for _, sentinel := range []error{snapshot.ErrFingerprint, snapshot.ErrCorrupt, snapshot.ErrTruncated} {
			typed = typed || errors.Is(err, sentinel)
		}
		if !typed {
			t.Errorf("%s: corruption produced an untyped error: %v", name, err)
		}
	}
}
