package querycentric_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	qc "querycentric"
)

// TestCLIPipeline builds the shipped binaries and runs the full trace
// pipeline through them: crawl → queries → analyze (track included) → sim.
// This is the only test that shells out; skip it with -short.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"qc-crawl", "qc-itunes", "qc-queries", "qc-analyze", "qc-sim"} {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}
	runIn := func(stdin, tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[tool], args...)
		if stdin != "" {
			f, err := os.Open(stdin)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			cmd.Stdin = f
		}
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\nstderr: %s", tool, args, err, stderr.String())
		}
		return stdout.String()
	}
	run := func(tool string, args ...string) string { return runIn("", tool, args...) }

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
	// A failed crawl leaves an existing -o file as it was.
	for _, bad := range [][]string{
		{"-snapshot-load", filepath.Join(dir, "missing.qcsnap")},
	} {
		if out, err := exec.Command(bins["qc-crawl"], append(bad, "-o", crawl)...).CombinedOutput(); err == nil {
			t.Fatalf("qc-crawl %v: want a failure, got success\n%s", bad, out)
		}
		if got, err := os.ReadFile(crawl); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("a failed qc-crawl %v changed its -o file (%v)", bad, err)
		}
	}
	for _, gone := range [][]string{
		{"-snapshot-load", snap, "-mmap"},
		{"-snapshot-save", snap, "-shard-size", "64"},
		{"-fault-sweep", "-scale", "tiny"}, // the sweep is qc-sim -mode faults
	} {
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

	// Online interval engine, over a file and over stdin. The digest pins
	// the output for these traces.
	const trackSHA256 = "f21dbec6060ccd789506ef53f1e8dd0e976da519d5b53846c00d89ea3b3ff89b"
	track := run("qc-analyze", "-mode", "track", "-in", queries, "-crawl", crawl)
	for _, out := range []string{track, runIn(queries, "qc-analyze", "-mode", "track", "-crawl", crawl)} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != trackSHA256 {
			t.Errorf("track output digest %s, want %s:\n%.200s", got, trackSHA256, out)
		}
	}
	checkTrackTransients(t, queries, track)
	if out, err := exec.Command(bins["qc-analyze"], "-mode", "track", "-in", queries, "-decay", "1").CombinedOutput(); err == nil || !strings.Contains(string(out), "flag provided but not defined") {
		t.Fatalf("qc-analyze -decay: want an unknown-flag failure, got %v\n%s", err, out)
	}

	// Every qc-sim mode of the registry, at tiny scale: its stdout and
	// stderr are what RUNNER_DIGESTS.txt pins. The last three print the rows
	// the claims tests in internal/experiments assert on — repaired vs
	// unrepaired final success, TTL-aware vs drop-tail success by load,
	// adaptive vs static success and cost — so the CLI must still render
	// each with its two values.
	raw, err := os.ReadFile("RUNNER_DIGESTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	sims := map[string]string{}
	for _, r := range qc.Runners {
		if !r.Sim {
			continue
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bins["qc-sim"], "-mode", r.Name, "-scale", "tiny")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("qc-sim -mode %s: %v\nstderr: %s", r.Name, err, stderr.String())
		}
		sims[r.Name] = stdout.String()
		line := fmt.Sprintf("%s %x", r.Name, sha256.Sum256(append(stdout.Bytes(), stderr.Bytes()...)))
		if !strings.Contains(string(raw), line+"\n") {
			t.Errorf("qc-sim -mode %s: output digest %q is not in RUNNER_DIGESTS.txt", r.Name, line)
		}
	}
	if out := sims["dht"]; !strings.Contains(out, "pastry_mean_hops") {
		t.Errorf("sim output unexpected: %.80s", out)
	}
	for mode, keys := range map[string][]string{
		"recovery":      {"# final_success"},
		"saturation":    {"ttl", "drop-tail"},
		"query-centric": {"static-flood", "adaptive"},
	} {
		out := sims[mode]
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

	// A mode-only flag is rejected when out of range, and when given to a
	// mode that does not bind it.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "recovery", "-burst-time", "-10"}, "-burst-time must be >= 0"},
		{[]string{"-mode", "recovery", "-ping-interval", "-5"}, "-ping-interval must be >= 0"},
		{[]string{"-mode", "churn-repair", "-ping-timeout", "-3"}, "-ping-timeout must be >= 0"},
		{[]string{"-mode", "faults", "-fault-rates", "2"}, "-fault-rates must be"},
		{[]string{"-mode", "faults", "-fault-rates", "0,x"}, `bad fault rate "x"`},
		{[]string{"-mode", "faults", "-attempts", "-1"}, "-attempts must be >= 0"},
		{[]string{"-mode", "fig8", "-dead", "0.5"}, "-dead does not apply to -mode fig8"},
		{[]string{"-mode", "recovery", "-polite", "0.5"}, "-polite does not apply to -mode recovery"},
		{[]string{"-mode", "fig8", "-snapshot-save", snap}, "-snapshot-save does not apply to -mode fig8"},
		{[]string{"-mode", "no-such-mode"}, `unknown mode "no-such-mode"`},
	} {
		out, err := exec.Command(bins["qc-sim"], append(tc.args, "-scale", "tiny")...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("qc-sim %v: want a failure naming %q, got %v\n%s", tc.args, tc.want, err, out)
		}
	}
}

// checkTrackTransients asserts that track mode's transients column is
// Transients' verdict at the same interval start: the terms Transients
// reports there, and nothing where it reports no point (the training
// window).
func checkTrackTransients(t *testing.T, queries, track string) {
	t.Helper()
	f, err := os.Open(queries)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	qt, err := qc.ReadQueryTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := qc.Transients(qt, 3600, qc.DefaultTransientConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, p := range pts {
		want[fmt.Sprint(p.Start)] = strings.Join(p.Terms, ",")
	}
	judged, flagged := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(track), "\n")[1:] {
		cols := strings.Split(line, "\t")
		start, got := cols[0], cols[len(cols)-1]
		w, ok := want[start]
		if ok {
			judged++
		}
		if got != "" {
			flagged++
		}
		if got != w {
			t.Errorf("track interval %s: transients %q, Transients %q", start, got, w)
		}
	}
	if judged == 0 || flagged == 0 {
		t.Errorf("track judged %d intervals and flagged transients in %d; the check is vacuous", judged, flagged)
	}
}
