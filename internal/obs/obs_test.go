package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: the disabled plane must be a total no-op — nil registries
// hand out nil handles and every handle method tolerates nil.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil handles: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(7)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles accumulated state")
	}
	r.StartPhase("p")()
	r.RecordPhase("q", time.Second)
	if ph := r.Phases(); ph != nil {
		t.Fatalf("nil registry recorded phases: %v", ph)
	}
	s := r.Snapshot()
	if len(s.Metrics) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"metrics":[]}` {
		t.Fatalf("nil snapshot JSON = %s", b)
	}

	var ft *FloodTraces
	ft.Record(FloodTrace{Key: 1})
	if ft.Enabled() || ft.Len() != 0 || len(ft.Snapshot()) != 0 {
		t.Fatal("nil FloodTraces not inert")
	}
}

// TestHistogramBucketEdges pins the inclusive-upper-bound rule: an
// observation equal to a bound lands in that bound's bucket, one above it
// in the next, and values above every bound overflow into +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{0, 10, 100})
	for _, v := range []int64{-5, 0, 1, 10, 11, 100, 101, 1 << 40} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Metrics) != 1 {
		t.Fatalf("want 1 metric, got %d", len(s.Metrics))
	}
	m := s.Metrics[0]
	want := []Bucket{
		{Le: 0, Count: 2},        // -5, 0
		{Le: 10, Count: 2},       // 1, 10
		{Le: 100, Count: 2},      // 11, 100
		{Le: InfBound, Count: 2}, // 101, 1<<40
	}
	if len(m.Buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(m.Buckets), len(want))
	}
	for i := range want {
		if m.Buckets[i] != want[i] {
			t.Errorf("bucket[%d] = %+v, want %+v", i, m.Buckets[i], want[i])
		}
	}
	if m.Value != 8 {
		t.Errorf("observation count = %d, want 8", m.Value)
	}
	wantSum := int64(-5 + 0 + 1 + 10 + 11 + 100 + 101 + (1 << 40))
	if m.Sum != wantSum {
		t.Errorf("sum = %d, want %d", m.Sum, wantSum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	r := NewRegistry()
	for _, bounds := range [][]int64{nil, {}, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			r.Histogram("bad", bounds)
		}()
	}
}

// TestSnapshotSortedAndStable: snapshots sort by name regardless of
// registration order, and re-registering returns the same handle.
func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zebra").Add(1)
	r.Gauge("alpha").Set(2)
	r.Histogram("mid", []int64{1}).Observe(1)
	if r.Counter("zebra") != r.Counter("zebra") {
		t.Fatal("re-registration returned a different counter")
	}
	names := []string{}
	for _, m := range r.Snapshot().Metrics {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != "alpha,mid,zebra" {
		t.Fatalf("snapshot order = %v", names)
	}
}

// TestCounterConcurrentSum: counters accumulate through commutative atomic
// adds, so a fanned-out total equals the sequential one.
func TestCounterConcurrentSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

// TestFloodTracesTruncation pins the bounded recorder's retention rule:
// the capacity smallest keys survive, independent of insertion order.
func TestFloodTracesTruncation(t *testing.T) {
	// Two insertion orders of the same records must retain the same set.
	orders := [][]uint64{
		{9, 1, 8, 2, 7, 3, 6, 4, 5},
		{5, 4, 6, 3, 7, 2, 8, 1, 9},
	}
	var snaps [][]FloodTrace
	for _, keys := range orders {
		ft := NewFloodTraces(4)
		for _, k := range keys {
			ft.Record(FloodTrace{Key: k, Messages: int(k)})
		}
		if ft.Len() != 4 {
			t.Fatalf("len = %d, want 4", ft.Len())
		}
		snaps = append(snaps, ft.Snapshot())
	}
	for i, tr := range snaps[0] {
		if want := uint64(i + 1); tr.Key != want {
			t.Errorf("retained key[%d] = %d, want %d", i, tr.Key, want)
		}
	}
	a, _ := json.Marshal(snaps[0])
	b, _ := json.Marshal(snaps[1])
	if !bytes.Equal(a, b) {
		t.Fatalf("retention depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	// A duplicate key overwrites rather than evicting.
	ft := NewFloodTraces(2)
	ft.Record(FloodTrace{Key: 1, Messages: 1})
	ft.Record(FloodTrace{Key: 2})
	ft.Record(FloodTrace{Key: 1, Messages: 99})
	if ft.Len() != 2 || ft.Snapshot()[0].Messages != 99 {
		t.Fatalf("duplicate key handling wrong: %+v", ft.Snapshot())
	}
	// A key above the retained max bounces off a full recorder.
	ft.Record(FloodTrace{Key: 50})
	if ft.Len() != 2 || ft.Snapshot()[1].Key != 2 {
		t.Fatalf("over-max key was retained: %+v", ft.Snapshot())
	}
}

// TestPrometheusExposition pins the text format, including cumulative
// histogram buckets and the +Inf rendering.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total").Add(3)
	r.Gauge("depth").Set(-2)
	h := r.Histogram("lat", []int64{1, 10})
	h.Observe(1)
	h.Observe(5)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE depth gauge
depth -2
# TYPE lat histogram
lat_bucket{le="1"} 1
lat_bucket{le="10"} 2
lat_bucket{le="+Inf"} 3
lat_sum 506
lat_count 3
# TYPE reqs_total counter
reqs_total 3
`
	if buf.String() != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestManifestFingerprint: the fingerprint ignores the declared-volatile
// fields (workers, phase timings) and changes with the deterministic ones.
func TestManifestFingerprint(t *testing.T) {
	mk := func(workers int, seed uint64, phases []PhaseTiming) *Manifest {
		r := NewRegistry()
		r.Counter("floods").Add(10)
		return &Manifest{
			Command: "qc-sim", Mode: "fig8", Scale: "tiny", Seed: seed,
			Workers: workers, Phases: phases, Metrics: r.Snapshot(),
		}
	}
	a := mk(1, 42, nil)
	b := mk(8, 42, []PhaseTiming{{Name: "run", Seconds: 1.23}})
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprint varies with volatile fields: %q vs %q", a.Fingerprint, b.Fingerprint)
	}
	c := mk(1, 43, nil)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("fingerprint ignored the seed")
	}
	if a.SchemaVersion != ManifestSchemaVersion {
		t.Fatalf("Finalize did not stamp schema version: %d", a.SchemaVersion)
	}
}

func TestRunFileName(t *testing.T) {
	cases := []struct {
		cmd, mode, scale string
		seed             uint64
		want             string
	}{
		{"qc-sim", "fig8", "tiny", 42, "RUN_qc-sim_fig8_tiny_seed42.json"},
		{"qc-figures", "", "default", 7, "RUN_qc-figures_default_seed7.json"},
		{"qc-analyze", "", "", 1, "RUN_qc-analyze_seed1.json"},
	}
	for _, c := range cases {
		if got := RunFileName(c.cmd, c.mode, c.scale, c.seed); got != c.want {
			t.Errorf("RunFileName(%q,%q,%q,%d) = %q, want %q", c.cmd, c.mode, c.scale, c.seed, got, c.want)
		}
	}
}
