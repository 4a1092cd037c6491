package core

import (
	"math"
	"slices"
	"testing"

	"querycentric/internal/querygen"
	"querycentric/internal/stats"
)

// recordingTracker returns a tracker that appends every closed interval to
// *reports.
func recordingTracker(t *testing.T, cfg TrackerConfig, reports *[]*IntervalReport) *Tracker {
	t.Helper()
	tr, err := NewTracker(cfg, func(r *IntervalReport) { *reports = append(*reports, r) })
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrackerValidation(t *testing.T) {
	bad := []TrackerConfig{
		{Interval: 0, TransientRatio: 5, HistoryDecay: 1},
		{Interval: 10, PopularFrac: 2, TransientRatio: 5, HistoryDecay: 1},
		{Interval: 10, TransientRatio: 0.5, HistoryDecay: 1},
		{Interval: 10, TransientRatio: 5, HistoryDecay: 0},
		{Interval: 10, TransientRatio: 5, HistoryDecay: 1.5},
		{Interval: 10, TransientRatio: 5, HistoryDecay: math.NaN()},
		{Interval: 10, PopularFrac: math.NaN(), TransientRatio: 5, HistoryDecay: 1},
		{Interval: 10, TransientRatio: math.NaN(), HistoryDecay: 1},
	}
	for i, cfg := range bad {
		if _, err := NewTracker(cfg, nil); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTrackerIntervalsClose(t *testing.T) {
	cfg := DefaultTrackerConfig()
	cfg.Interval = 100
	var reports []*IntervalReport
	tr := recordingTracker(t, cfg, &reports)
	tr.Observe(0, "madonna music")
	tr.Observe(50, "madonna")
	tr.Observe(150, "zeppelin") // closes interval 0
	tr.Observe(350, "zeppelin") // closes 1 and 2
	tr.Flush()                  // closes 3
	if len(reports) != 4 {
		t.Fatalf("closed %d intervals", len(reports))
	}
	for i, r := range reports {
		if r.Index != i {
			t.Fatalf("report %d has index %d", i, r.Index)
		}
	}
	if reports[0].Queries != 2 || reports[0].Volume != 3 {
		t.Errorf("interval 0: %+v", reports[0])
	}
	if reports[2].Queries != 0 {
		t.Errorf("empty interval 2 has %d queries", reports[2].Queries)
	}
	if reports[3].Queries != 1 {
		t.Errorf("interval 3 has %d queries", reports[3].Queries)
	}
}

func TestTrackerTimeMonotonic(t *testing.T) {
	tr, _ := NewTracker(DefaultTrackerConfig(), nil)
	tr.Observe(5000, "a b")
	if err := tr.Observe(100, "c d"); err == nil {
		t.Error("time regression accepted")
	}
}

func TestTrackerPopularAndPersistence(t *testing.T) {
	cfg := DefaultTrackerConfig()
	cfg.Interval = 100
	cfg.MinPopularCount = 3
	var reports []*IntervalReport
	tr := recordingTracker(t, cfg, &reports)
	// Interval 0: madonna x5, noise x1.
	for i := int64(0); i < 5; i++ {
		tr.Observe(i, "madonna")
	}
	tr.Observe(6, "noise")
	// Interval 1: madonna x5, zeppelin x4.
	for i := int64(100); i < 105; i++ {
		tr.Observe(i, "madonna")
	}
	for i := int64(110); i < 114; i++ {
		tr.Observe(i, "zeppelin")
	}
	tr.Flush()
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	if _, ok := reports[0].Popular["madonna"]; !ok {
		t.Error("madonna not popular in interval 0")
	}
	if _, ok := reports[0].Popular["noise"]; ok {
		t.Error("noise popular in interval 0")
	}
	if _, ok := reports[1].Persistent["madonna"]; !ok {
		t.Error("madonna not persistent in interval 1")
	}
	if _, ok := reports[1].Persistent["zeppelin"]; ok {
		t.Error("newly popular zeppelin marked persistent")
	}
	// Stability = |{madonna}| / |{madonna, zeppelin}| = 0.5.
	if reports[1].Stability != 0.5 {
		t.Errorf("stability = %v, want 0.5", reports[1].Stability)
	}
	if got := tr.Popular(); len(got) != 2 {
		t.Errorf("latest popular set: %v", got)
	}
	if got := tr.PopularTerms(); len(got) != 2 {
		t.Errorf("PopularTerms: %v", got)
	}
}

func TestTrackerTransients(t *testing.T) {
	cfg := DefaultTrackerConfig()
	cfg.Interval = 100
	cfg.TrainIntervals = 2
	cfg.TransientMinCount = 5
	cfg.TransientRatio = 4
	var reports []*IntervalReport
	tr := recordingTracker(t, cfg, &reports)
	// Two training intervals of steady traffic.
	for iv := int64(0); iv < 2; iv++ {
		for i := int64(0); i < 20; i++ {
			tr.Observe(iv*100+i, "steady traffic")
		}
	}
	// Interval 2: steady + a flash term.
	for i := int64(0); i < 20; i++ {
		tr.Observe(200+i, "steady traffic")
	}
	for i := int64(40); i < 50; i++ {
		tr.Observe(200+i, "flashterm")
		tr.Observe(200+i, "aardvark")
	}
	tr.Flush()
	// Exactly the two flash terms, in sorted order (not map order).
	if got, want := reports[len(reports)-1].Transients, []string{"aardvark", "flashterm"}; !slices.Equal(got, want) {
		t.Errorf("transients = %v, want %v", got, want)
	}
}

func TestTrackerNoTransientsDuringTraining(t *testing.T) {
	cfg := DefaultTrackerConfig()
	cfg.Interval = 100
	cfg.TrainIntervals = 5
	var reports []*IntervalReport
	tr := recordingTracker(t, cfg, &reports)
	for i := int64(0); i < 50; i++ {
		tr.Observe(i, "boom boom boom")
	}
	tr.Flush()
	if got := reports[0].Transients; got != nil {
		t.Errorf("transients during training: %v", got)
	}
}

func TestTrackerHistoryDecay(t *testing.T) {
	cfg := DefaultTrackerConfig()
	cfg.Interval = 100
	cfg.TrainIntervals = 1
	cfg.HistoryDecay = 0.5
	cfg.TransientMinCount = 5
	cfg.TransientRatio = 3
	var reports []*IntervalReport
	tr := recordingTracker(t, cfg, &reports)
	// A term popular early, silent for many intervals, then returning:
	// with decay, its historical rate fades, so the return is transient.
	for i := int64(0); i < 20; i++ {
		tr.Observe(i, "comeback")
	}
	for iv := int64(1); iv < 10; iv++ {
		for i := int64(0); i < 20; i++ {
			tr.Observe(iv*100+i, "filler noise")
		}
	}
	for i := int64(0); i < 20; i++ {
		tr.Observe(1000+i, "comeback")
	}
	tr.Flush()
	last := reports[len(reports)-1]
	found := false
	for _, tok := range last.Transients {
		if tok == "comeback" {
			found = true
		}
	}
	if !found {
		t.Errorf("decayed history did not flag the comeback: %v", last.Transients)
	}
}

func TestTrackerMismatch(t *testing.T) {
	cfg := DefaultTrackerConfig()
	cfg.Interval = 100
	cfg.MinPopularCount = 2
	tr, _ := NewTracker(cfg, nil)
	for i := int64(0); i < 5; i++ {
		tr.Observe(i, "alpha beta")
	}
	tr.Flush()
	file := map[string]struct{}{"beta": {}, "gamma": {}, "delta": {}}
	// popular {alpha,beta} vs file {beta,gamma,delta}: J = 1/4.
	if got := stats.Jaccard(tr.Popular(), file); got != 0.25 {
		t.Errorf("mismatch = %v, want 0.25", got)
	}
	empty, _ := NewTracker(cfg, nil)
	if empty.Popular() != nil {
		t.Error("Popular before any interval should be nil")
	}
}

func TestTrackerAgainstOfflineAnalysis(t *testing.T) {
	// The online tracker must agree with the offline interval bucketing on
	// the same workload (same popularity definition).
	w, err := querygen.Generate(func() querygen.Config {
		c := querygen.DefaultConfig(31)
		c.Queries = 20000
		c.Duration = 12 * 3600
		c.TailSize = 3000
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	var reports []*IntervalReport
	tr := recordingTracker(t, DefaultTrackerConfig(), &reports)
	for _, rec := range w.Trace.Records {
		if err := tr.Observe(rec.Time, rec.Query); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	var o stats.Online
	for _, r := range reports[2:] {
		o.Add(r.Stability)
	}
	if o.Mean() < 0.70 {
		t.Errorf("online stability mean = %v, want > 0.70", o.Mean())
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	tr, _ := NewTracker(DefaultTrackerConfig(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(int64(i/100), "some query terms here")
	}
}
