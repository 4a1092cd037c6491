package cliflags

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"querycentric/internal/obs"
)

func TestObsDisabledByDefault(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := AddObs(fs, "qc-test")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	reg, traces := o.Setup()
	if reg != nil || traces != nil || o.Enabled() {
		t.Fatal("plane must be disabled without -metrics")
	}
	path, err := o.WriteManifest("", "tiny", 42, 1)
	if err != nil || path != "" {
		t.Fatalf("disabled WriteManifest = (%q, %v), want no-op", path, err)
	}
}

func TestTraceFloodsImpliesMetrics(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := AddObs(fs, "qc-test")
	if err := fs.Parse([]string{"-trace-floods"}); err != nil {
		t.Fatal(err)
	}
	reg, traces := o.Setup()
	if reg == nil || traces == nil {
		t.Fatal("-trace-floods must enable both registry and trace recorder")
	}
}

func TestWriteManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-yet-created")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := AddObs(fs, "qc-test")
	if err := fs.Parse([]string{"-metrics", "-metrics-dir", dir}); err != nil {
		t.Fatal(err)
	}
	reg, _ := o.Setup()
	reg.Counter("a_total").Add(3)
	path, err := o.WriteManifest("fig8", "tiny", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "RUN_qc-test_fig8_tiny_seed7.json" {
		t.Errorf("manifest name = %s", filepath.Base(path))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Command != "qc-test" || m.Mode != "fig8" || m.Seed != 7 || m.Workers != 4 {
		t.Errorf("manifest header = %+v", m)
	}
	if m.Fingerprint == "" || m.SchemaVersion != obs.ManifestSchemaVersion {
		t.Errorf("manifest not finalized: %+v", m)
	}
	prom, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".prom")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "a_total 3") {
		t.Errorf("prom exposition missing counter: %q", prom)
	}
}

func TestChecks(t *testing.T) {
	if CheckWorkers(0) != nil || CheckWorkers(8) != nil {
		t.Error("valid workers rejected")
	}
	if CheckWorkers(-1) == nil {
		t.Error("negative workers accepted")
	}
	if CheckFrac("-dead", 0) != nil || CheckFrac("-dead", 1) != nil {
		t.Error("valid fraction rejected")
	}
	if CheckFrac("-dead", -0.1) == nil || CheckFrac("-dead", 1.1) == nil {
		t.Error("out-of-range fraction accepted")
	}
	if CheckFrac("-dead", math.NaN()) == nil {
		t.Error("NaN fraction accepted")
	}
	if CheckPositive("-peers", 1) != nil || CheckPositive("-peers", 0) == nil {
		t.Error("CheckPositive wrong")
	}
	if CheckNonNegative("-attempts", 0) != nil || CheckNonNegative("-attempts", -1) == nil {
		t.Error("CheckNonNegative wrong")
	}
	if CheckPositiveSeconds("-interval", 60) != nil || CheckPositiveSeconds("-interval", 0) == nil {
		t.Error("CheckPositiveSeconds wrong")
	}
}

// TestCapacityKnobChecks covers the qc-sim saturation-mode flags: queue
// depth and service cost must be positive, and the shed policy must come
// from the known set.
func TestCapacityKnobChecks(t *testing.T) {
	intCases := []struct {
		name  string
		check func() error
		ok    bool
	}{
		{"queue-depth ok", func() error { return CheckPositive("-queue-depth", 16) }, true},
		{"queue-depth zero", func() error { return CheckPositive("-queue-depth", 0) }, false},
		{"queue-depth negative", func() error { return CheckPositive("-queue-depth", -4) }, false},
		{"service-cost ok", func() error { return CheckPositive("-service-cost", 10000) }, true},
		{"service-cost zero", func() error { return CheckPositive("-service-cost", 0) }, false},
		{"service-cost negative", func() error { return CheckPositive("-service-cost", -1) }, false},
	}
	for _, tc := range intCases {
		if err := tc.check(); (err == nil) != tc.ok {
			t.Errorf("%s: got err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	policies := []string{"all", "unbounded", "drop-tail", "red", "ttl"}
	polCases := []struct {
		value string
		ok    bool
	}{
		{"all", true}, {"unbounded", true}, {"drop-tail", true},
		{"red", true}, {"ttl", true},
		{"", false}, {"droptail", false}, {"RED", false}, {"tail-drop", false},
	}
	for _, tc := range polCases {
		err := CheckOneOf("-shed-policy", tc.value, policies...)
		if (err == nil) != tc.ok {
			t.Errorf("-shed-policy %q: got err=%v, want ok=%v", tc.value, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "all|unbounded|drop-tail|red|ttl") {
			t.Errorf("-shed-policy %q: error %q does not list choices", tc.value, err)
		}
	}
}

func TestWriteOutputReplacesOnlyOnSuccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trace")
	if err := os.WriteFile(path, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteOutput(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteOutput returned %v, want the write error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "previous\n" {
		t.Fatalf("a failed write changed the file to %q", got)
	}
	if err := WriteOutput(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "next\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "next\n" {
		t.Fatalf("file holds %q after a successful write", got)
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".*")); len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}
