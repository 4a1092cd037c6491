package querycentric_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline builds the shipped binaries and runs the full trace
// pipeline through them: crawl → queries → analyze → track → sim. This is
// the only test that shells out; skip it with -short.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"qc-crawl", "qc-itunes", "qc-queries", "qc-analyze", "qc-track", "qc-sim"} {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[tool], args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\nstderr: %s", tool, args, err, stderr.String())
		}
		return stdout.String()
	}

	crawl := filepath.Join(dir, "crawl.trace")
	run("qc-crawl", "-peers", "120", "-objects", "2500", "-firewalled", "0", "-o", crawl)
	if fi, err := os.Stat(crawl); err != nil || fi.Size() == 0 {
		t.Fatalf("crawl trace missing: %v", err)
	}

	// Snapshots: a crawl of a population built into a snapshot, and one of
	// the population restored from it, must write the plain crawl's trace.
	snap := filepath.Join(dir, "net.qcsnap")
	want, err := os.ReadFile(crawl)
	if err != nil {
		t.Fatal(err)
	}
	for _, flags := range [][]string{{"-snapshot-save", snap}, {"-snapshot-load", snap}} {
		out := filepath.Join(dir, "snap.trace")
		run("qc-crawl", append([]string{"-peers", "120", "-objects", "2500", "-firewalled", "0", "-o", out}, flags...)...)
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("qc-crawl %v: trace differs from the plain crawl's (%v)", flags, err)
		}
	}
	for _, gone := range [][]string{{"-snapshot-load", snap, "-mmap"}, {"-snapshot-save", snap, "-shard-size", "64"}} {
		if out, err := exec.Command(bins["qc-crawl"], gone...).CombinedOutput(); err == nil || !strings.Contains(string(out), "flag provided but not defined") {
			t.Fatalf("qc-crawl %v: want an unknown-flag failure, got %v\n%s", gone, err, out)
		}
	}

	itunes := filepath.Join(dir, "itunes.trace")
	run("qc-itunes", "-shares", "40", "-songs", "1500", "-o", itunes)

	queries := filepath.Join(dir, "queries.trace")
	run("qc-queries", "-n", "15000", "-days", "1", "-crawl", crawl, "-o", queries)

	// Analyses over the traces.
	if out := run("qc-analyze", "-mode", "replicas", "-in", crawl); !strings.Contains(out, "rank\tcount") {
		t.Errorf("replicas output unexpected: %.80s", out)
	}
	if out := run("qc-analyze", "-mode", "annotations", "-in", itunes); !strings.Contains(out, "artist") {
		t.Errorf("annotations output unexpected: %.80s", out)
	}
	if out := run("qc-analyze", "-mode", "mismatch", "-in", queries, "-crawl", crawl); !strings.Contains(out, "popular_vs_fstar") {
		t.Errorf("mismatch output unexpected: %.80s", out)
	}
	if out := run("qc-analyze", "-mode", "transients", "-in", queries); !strings.Contains(out, "start\tcount") {
		t.Errorf("transients output unexpected: %.80s", out)
	}

	// Online tracker.
	if out := run("qc-track", "-in", queries, "-mismatch", crawl); !strings.Contains(out, "stability\tmismatch") {
		t.Errorf("track output unexpected: %.80s", out)
	}

	// Simulation modes (tiny scale keeps this quick). The last three print
	// the rows the claims tests in internal/experiments assert on — repaired
	// vs unrepaired final success, TTL-aware vs drop-tail success by load,
	// adaptive vs static success and cost — so the CLI must still render
	// each with its two values.
	sim := func(mode string) string { return run("qc-sim", "-mode", mode, "-scale", "tiny") }
	if out := sim("dht"); !strings.Contains(out, "pastry_mean_hops") {
		t.Errorf("sim output unexpected: %.80s", out)
	}
	for mode, keys := range map[string][]string{
		"recovery":      {"# final_success"},
		"saturation":    {"ttl", "drop-tail"},
		"query-centric": {"static-flood", "adaptive"},
	} {
		out := sim(mode)
		for _, key := range keys {
			found := false
			for _, line := range strings.Split(out, "\n") {
				f := strings.Split(line, "\t")
				found = found || len(f) >= 3 && f[0] == key && f[1] != "" && f[2] != ""
			}
			if !found {
				t.Errorf("qc-sim -mode %s: no %q row with two values in:\n%s", mode, key, out)
			}
		}
	}
}
