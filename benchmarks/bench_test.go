package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCatalogue holds BENCHMARK.json to the Go catalogue
// and to the driver's schema limits.
func TestManifestMatchesCatalogue(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(m.Command, " "); got != "go run ./benchmarks" {
		t.Errorf("command %q", got)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmarks" {
		t.Errorf("paths %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v, catalogue %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no set-up function", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, g := range got {
			name(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v, catalogue %s/%s/%s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better %q", g.Name, g.Better)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q", g.Name, g.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, catalogue %v (must be in (0, 0.25])", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			case !bounded && (w.Layer == "" || w.Moves == ""):
				t.Errorf("%s: catalogue entry needs a layer and the end-to-end metric it moves", g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(m.PerLayer))
	}
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better")
	}
}

func smoke(t *testing.T, workload string, seed uint64, trace bool) (*result, *tracer) {
	t.Helper()
	res, tr, err := runWorkload(options{workload: workload, seed: seed, trace: trace, smoke: true, tmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Failures) != 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d failed: %v", workload, seed, trace, res.Failed, res.Attempted, res.Failures)
	}
	return res, tr
}

// TestSmokeWorkloads runs every workload at smoke size: the emitted metric
// names are exactly BENCHMARK.json's, each with its unit; the same seed
// repeats the digest and every count; another seed moves the digest; the
// traced run agrees with the untraced one; the span tree is well formed.
func TestSmokeWorkloads(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, _ := smoke(t, w.Name, 42, false)
			again, _ := smoke(t, w.Name, 42, false)
			other, _ := smoke(t, w.Name, 7, false)
			traced, tr := smoke(t, w.Name, 42, true)
			traced2, _ := smoke(t, w.Name, 42, true)

			if plain.SimDigest != again.SimDigest || plain.Attempted != again.Attempted {
				t.Errorf("same seed: digest %s/%s, attempted %d/%d", plain.SimDigest, again.SimDigest, plain.Attempted, again.Attempted)
			}
			if plain.SimDigest == other.SimDigest {
				t.Errorf("seeds 42 and 7 share sim_digest %s", plain.SimDigest)
			}
			// A traced repetition measures twice on the same inputs.
			if traced.SimDigest != plain.SimDigest || traced.Attempted != 2*plain.Attempted {
				t.Errorf("traced digest %s attempted %d, untraced %s and %d", traced.SimDigest, traced.Attempted, plain.SimDigest, plain.Attempted)
			}
			for _, d := range perLayer {
				a, b := traced.PerLayer[d.Name].Value, traced2.PerLayer[d.Name].Value
				if d.Count && a != b {
					t.Errorf("count metric %s differs between two traced runs of one seed: %v vs %v", d.Name, a, b)
				}
			}

			wantNames(t, "end-to-end", plain.EndToEnd, m.EndToEnd)
			wantNames(t, "per-layer", traced.PerLayer, m.PerLayer)
			for name, mv := range plain.EndToEnd {
				if !(mv.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, mv.Value)
				}
			}
			if len(plain.PerLayer) != 0 {
				t.Errorf("untraced run reports %d per-layer metrics", len(plain.PerLayer))
			}

			if err := tr.check(); err != nil {
				t.Error(err)
			}
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for name, st := range tr.aggregate() {
				if st.Self < 0 || st.Self > st.Total {
					t.Errorf("span %s: self %v outside [0, total %v]", name, st.Self, st.Total)
				}
			}
			for _, r := range []*result{plain, traced} {
				checkDriverLine(t, r, m)
			}
		})
	}
}

func wantNames(t *testing.T, kind string, got map[string]metricValue, want []manifestMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for _, w := range want {
		mv, ok := got[w.Name]
		if !ok {
			t.Errorf("%s metric %s not emitted", kind, w.Name)
		} else if mv.Unit != w.Unit {
			t.Errorf("%s metric %s emitted in %q, BENCHMARK.json says %q", kind, w.Name, mv.Unit, w.Unit)
		}
	}
}

// checkDriverLine parses the last printed line as the contract's object.
func checkDriverLine(t *testing.T, res *result, m *manifest) {
	t.Helper()
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(line))
	}
	var dl driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dl); err != nil {
		t.Fatal(err)
	}
	want := m.EndToEnd
	if res.Trace {
		want = m.PerLayer
	}
	if !dl.Correct || dl.Attempted < 1 || dl.Failed != 0 || len(dl.Metrics) != len(want) {
		t.Errorf("result line %+v, want correct with %d metrics", dl, len(want))
	}
	for _, w := range want {
		if dl.Metrics[w.Name].Unit != w.Unit {
			t.Errorf("result line: metric %s unit %q, want %q", w.Name, dl.Metrics[w.Name].Unit, w.Unit)
		}
	}
	// Every metric is also printed by name with its unit.
	for _, w := range want {
		if !strings.Contains(out.String(), "metric="+w.Name+" ") {
			t.Errorf("metric %s not printed by name", w.Name)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, true, "within-bound"},
		{"faster", []float64{120, 121, 119, 122, 120}, true, "better"},
		{"slower", []float64{80, 81, 79, 80, 82}, true, "worse"},
		{"slower-is-better-when-lower", []float64{80, 81, 79, 80, 82}, false, "better"},
		{"noisy", []float64{60, 140, 100, 70, 130}, true, "unresolved"},
		{"noisy-but-all-worse", []float64{50, 90, 60, 80, 55}, true, "worse"},
	} {
		if got, _, _ := judge(base, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestModelTracksNaiveFlood pins the flooding model against the reference
// flood on a network small enough to flood from every peer.
func TestModelTracksNaiveFlood(t *testing.T) {
	b := &bench{opts: options{seed: 11}, sz: smokeSizes, tr: newTracer(), workers: 1, layer: map[string]float64{}}
	_, nw, err := buildNetwork(b, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for origin := range nw.Peers {
		msgs, _, _ := naiveFlood(nw, origin, "no such term", 4)
		total += msgs
	}
	got := float64(total) / float64(len(nw.Peers))
	want := modelMessages(nw, 4)
	if got < 0.8*want || got > 1.2*want {
		t.Errorf("mean messages per flood %.1f, model predicts %.1f", got, want)
	}
}
