package analysis

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"querycentric/internal/querygen"
	"querycentric/internal/stats"
	"querycentric/internal/terms"
	"querycentric/internal/trace"
)

// --- The map-based reference the interval engine is checked against. ---
//
// refIntervals, refStabilitySeries and refTransients are the offline
// analyses as first written: bucket every record by time, count with
// Tokenize, and compute each rule from scratch per interval. They accept
// records in any order.

func refIntervals(tr *trace.QueryTrace, cfg IntervalConfig) ([]*Interval, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("analysis: Interval must be positive, got %d", cfg.Interval)
	}
	if !(cfg.PopularFrac >= 0 && cfg.PopularFrac <= 1) {
		return nil, fmt.Errorf("analysis: PopularFrac out of range: %g", cfg.PopularFrac)
	}
	if tr.Duration <= 0 {
		return nil, fmt.Errorf("analysis: trace has no duration")
	}
	n := int((tr.Duration + cfg.Interval - 1) / cfg.Interval)
	out := make([]*Interval, n)
	for i := range out {
		out[i] = &Interval{Index: i, Start: int64(i) * cfg.Interval, Counts: map[string]int{}}
	}
	for _, rec := range tr.Records {
		if rec.Time < 0 || rec.Time >= tr.Duration {
			return nil, fmt.Errorf("analysis: query time %d outside trace duration %d", rec.Time, tr.Duration)
		}
		iv := out[rec.Time/cfg.Interval]
		iv.Queries++
		for _, tok := range terms.Tokenize(rec.Query) {
			iv.Counts[tok]++
			iv.Volume++
		}
	}
	for _, iv := range out {
		thresh := int(cfg.PopularFrac * float64(iv.Volume))
		if thresh < cfg.MinPopularCount {
			thresh = cfg.MinPopularCount
		}
		iv.Popular = make(map[string]struct{})
		for tok, c := range iv.Counts {
			if c >= thresh {
				iv.Popular[tok] = struct{}{}
			}
		}
	}
	return out, nil
}

func refStabilitySeries(ivs []*Interval) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(ivs))
	for i := 1; i < len(ivs); i++ {
		cur, prev := ivs[i].Popular, ivs[i-1].Popular
		persist := make(map[string]struct{})
		for t := range cur {
			if _, ok := prev[t]; ok {
				persist[t] = struct{}{}
			}
		}
		out = append(out, SeriesPoint{Start: ivs[i].Start, Value: stats.Jaccard(cur, persist)})
	}
	return out
}

func refTransients(tr *trace.QueryTrace, interval int64, cfg TransientConfig) ([]TransientPoint, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("analysis: interval must be positive")
	}
	if !(cfg.TrainFrac > 0 && cfg.TrainFrac < 1) {
		return nil, fmt.Errorf("analysis: TrainFrac must be in (0,1), got %g", cfg.TrainFrac)
	}
	if !(cfg.Ratio > 1) {
		return nil, fmt.Errorf("analysis: Ratio must exceed 1, got %g", cfg.Ratio)
	}
	nTrain := int(float64(len(tr.Records)) * cfg.TrainFrac)
	if nTrain == 0 || nTrain >= len(tr.Records) {
		return nil, fmt.Errorf("analysis: training prefix of %d queries is unusable", nTrain)
	}
	trainEnd := tr.Records[nTrain-1].Time + 1 // training window in seconds
	hist := map[string]int{}
	histVolume := 0
	for _, rec := range tr.Records[:nTrain] {
		for _, tok := range terms.Tokenize(rec.Query) {
			hist[tok]++
			histVolume++
		}
	}
	if histVolume == 0 {
		return nil, fmt.Errorf("analysis: training prefix contains no terms")
	}

	// Bucket the evaluation portion.
	evalTrace := &trace.QueryTrace{Duration: tr.Duration, Records: tr.Records[nTrain:]}
	ivs, err := refIntervals(evalTrace, IntervalConfig{Interval: interval, PopularFrac: 1, MinPopularCount: 1 << 30})
	if err != nil {
		return nil, err
	}
	out := make([]TransientPoint, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Start+interval <= trainEnd {
			continue // fully inside the training window
		}
		tp := TransientPoint{Start: iv.Start}
		for tok, c := range iv.Counts {
			if c < cfg.MinCount {
				continue
			}
			expected := float64(hist[tok]) / float64(histVolume) * float64(iv.Volume)
			if float64(c) >= cfg.Ratio*expected+float64(cfg.MinCount)-1 {
				tp.Terms = append(tp.Terms, tok)
			}
		}
		slices.Sort(tp.Terms)
		tp.Count = len(tp.Terms)
		out = append(out, tp)
	}
	return out, nil
}

func queryTrace(duration int64, recs ...trace.QueryRecord) *trace.QueryTrace {
	return &trace.QueryTrace{Source: "test", Duration: duration, Records: recs}
}

func TestIntervalsValidation(t *testing.T) {
	tr := queryTrace(100)
	if _, err := Intervals(tr, IntervalConfig{Interval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Intervals(tr, IntervalConfig{Interval: 10, PopularFrac: 2}); err == nil {
		t.Error("bad PopularFrac accepted")
	}
	if _, err := Intervals(queryTrace(0), DefaultIntervalConfig()); err == nil {
		t.Error("zero-duration trace accepted")
	}
	if _, err := Intervals(tr, IntervalConfig{Interval: 10, PopularFrac: math.NaN()}); err == nil {
		t.Error("NaN PopularFrac accepted")
	}
	bad := queryTrace(10, trace.QueryRecord{Time: 50, Query: "x y"})
	if _, err := Intervals(bad, IntervalConfig{Interval: 10}); err == nil {
		t.Error("out-of-range record accepted")
	}
	backwards := queryTrace(100, trace.QueryRecord{Time: 50, Query: "x"}, trace.QueryRecord{Time: 49, Query: "y"})
	if _, err := Intervals(backwards, IntervalConfig{Interval: 10}); err == nil {
		t.Error("record earlier than its predecessor accepted")
	}
}

func TestIntervalsBucketing(t *testing.T) {
	tr := queryTrace(100,
		trace.QueryRecord{Time: 0, Query: "madonna music"},
		trace.QueryRecord{Time: 9, Query: "madonna"},
		trace.QueryRecord{Time: 10, Query: "zeppelin"},
		trace.QueryRecord{Time: 99, Query: "madonna music"},
	)
	ivs, err := Intervals(tr, IntervalConfig{Interval: 10, PopularFrac: 0.5, MinPopularCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 10 {
		t.Fatalf("%d intervals, want 10", len(ivs))
	}
	if ivs[0].Queries != 2 || ivs[0].Volume != 3 {
		t.Errorf("interval 0: queries=%d volume=%d", ivs[0].Queries, ivs[0].Volume)
	}
	if ivs[0].Counts["madonna"] != 2 {
		t.Errorf("madonna count = %d", ivs[0].Counts["madonna"])
	}
	// Popular threshold: max(0.5*3, 2) = 2 ⇒ only madonna.
	if _, ok := ivs[0].Popular["madonna"]; !ok {
		t.Error("madonna not popular in interval 0")
	}
	if _, ok := ivs[0].Popular["music"]; ok {
		t.Error("music wrongly popular")
	}
	if ivs[1].Queries != 1 {
		t.Errorf("interval 1 queries = %d", ivs[1].Queries)
	}
	if ivs[9].Queries != 1 {
		t.Errorf("interval 9 queries = %d", ivs[9].Queries)
	}
}

func TestStabilitySeries(t *testing.T) {
	// Each interval's queries are exactly its popular terms.
	tr := queryTrace(40,
		trace.QueryRecord{Time: 0, Query: "aa bb cc"},
		trace.QueryRecord{Time: 10, Query: "aa bb cc"}, // identical: J = 1
		trace.QueryRecord{Time: 20, Query: "aa bb dd"}, // persist {aa,bb} of {aa,bb,dd}: J = 2/3
		trace.QueryRecord{Time: 30, Query: "xx yy"},    // persist {}: J = 0
	)
	ivs, err := Intervals(tr, IntervalConfig{Interval: 10, MinPopularCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ivs[0].Stability != 1 {
		t.Errorf("first interval's stability = %v, want 1", ivs[0].Stability)
	}
	s := StabilitySeries(ivs)
	if len(s) != 3 {
		t.Fatalf("series length %d", len(s))
	}
	want := []float64{1, 2.0 / 3, 0}
	for i, w := range want {
		if diff := s[i].Value - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("point %d = %v, want %v", i, s[i].Value, w)
		}
		if s[i].Start != int64(i+1)*10 {
			t.Errorf("point %d starts at %d", i, s[i].Start)
		}
	}
}

func TestMismatchSeries(t *testing.T) {
	iv := &Interval{
		Start:   0,
		Popular: map[string]struct{}{"a": {}, "b": {}},
		Counts:  map[string]int{"a": 5, "b": 4, "z": 1},
	}
	file := map[string]struct{}{"b": {}, "c": {}}
	s := MismatchSeries([]*Interval{iv}, file)
	if len(s) != 1 || s[0].Value != 1.0/3 {
		t.Errorf("mismatch = %+v, want 1/3", s)
	}
	all := AllTermsMismatchSeries([]*Interval{iv}, file)
	// all terms {a,b,z} vs {b,c}: J = 1/4.
	if len(all) != 1 || all[0].Value != 0.25 {
		t.Errorf("all-terms mismatch = %+v, want 0.25", all)
	}
	// Two empty sets share no term.
	if got := Mismatch(nil, map[string]struct{}{}); got != 0 {
		t.Errorf("mismatch of two empty sets = %v, want 0", got)
	}
}

// recordingEngine returns an engine that appends every closed interval to
// *ivs.
func recordingEngine(t *testing.T, cfg IntervalConfig, ivs *[]*Interval) *IntervalEngine {
	t.Helper()
	e, err := NewIntervalEngine(cfg, func(iv *Interval) { *ivs = append(*ivs, iv) })
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func observe(t *testing.T, e *IntervalEngine, now int64, query string) {
	t.Helper()
	if err := e.Observe(now, query); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalEngineClosesIntervals(t *testing.T) {
	var ivs []*Interval
	e := recordingEngine(t, IntervalConfig{Interval: 100, MinPopularCount: 3}, &ivs)
	observe(t, e, 0, "madonna music")
	observe(t, e, 50, "madonna")
	observe(t, e, 150, "zeppelin") // closes interval 0
	observe(t, e, 350, "zeppelin") // closes 1 and 2
	e.CloseThrough(351)            // closes 3
	if len(ivs) != 4 {
		t.Fatalf("closed %d intervals", len(ivs))
	}
	for i, iv := range ivs {
		if iv.Index != i || iv.Start != int64(i)*100 {
			t.Fatalf("interval %d has index %d, start %d", i, iv.Index, iv.Start)
		}
	}
	if ivs[0].Queries != 2 || ivs[0].Volume != 3 {
		t.Errorf("interval 0: %+v", ivs[0])
	}
	if ivs[2].Queries != 0 {
		t.Errorf("empty interval 2 has %d queries", ivs[2].Queries)
	}
	if ivs[3].Queries != 1 {
		t.Errorf("interval 3 has %d queries", ivs[3].Queries)
	}
	// Closing is final: an interval already closed accepts no query.
	if err := e.Observe(399, "late"); err == nil {
		t.Error("query into a closed interval accepted")
	}
	if err := e.Observe(400, "next"); err != nil {
		t.Error(err)
	}
}

func TestIntervalEngineTimeMonotonic(t *testing.T) {
	e, err := NewIntervalEngine(DefaultIntervalConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	observe(t, e, 50, "a b")
	observe(t, e, 50, "a b") // equal times are in order
	if err := e.Observe(49, "c d"); err == nil {
		t.Error("time regression inside the open interval accepted")
	}
}

func TestIntervalEnginePopularAndStability(t *testing.T) {
	var ivs []*Interval
	e := recordingEngine(t, IntervalConfig{Interval: 100, PopularFrac: 0.0025, MinPopularCount: 3}, &ivs)
	// Interval 0: madonna x5, noise x1.
	for i := int64(0); i < 5; i++ {
		observe(t, e, i, "madonna")
	}
	observe(t, e, 6, "noise")
	// Interval 1: madonna x5, zeppelin x4.
	for i := int64(100); i < 105; i++ {
		observe(t, e, i, "madonna")
	}
	for i := int64(110); i < 114; i++ {
		observe(t, e, i, "zeppelin")
	}
	e.CloseThrough(200)
	if len(ivs) != 2 {
		t.Fatalf("%d intervals", len(ivs))
	}
	if _, ok := ivs[0].Popular["madonna"]; !ok {
		t.Error("madonna not popular in interval 0")
	}
	if _, ok := ivs[0].Popular["noise"]; ok {
		t.Error("noise popular in interval 0")
	}
	// Persistent {madonna} of popular {madonna, zeppelin}: J = 0.5.
	if len(ivs[1].Popular) != 2 || ivs[1].Stability != 0.5 {
		t.Errorf("interval 1: popular %v, stability %v, want 2 terms and 0.5", ivs[1].Popular, ivs[1].Stability)
	}
}

func TestIntervalEngineTransients(t *testing.T) {
	var ivs []*Interval
	e := recordingEngine(t, IntervalConfig{Interval: 100, MinPopularCount: 3}, &ivs)
	// 100 queries; the first 40 train. Query 39 lands at t=117, so
	// interval 0 lies inside the training window and interval 1 is judged
	// on its queries after the prefix only.
	if err := e.Train(100, TransientConfig{TrainFrac: 0.4, Ratio: 4, MinCount: 5}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		observe(t, e, 3*i, "steady traffic") // t = 0 … 117
	}
	for i := int64(0); i < 20; i++ {
		observe(t, e, 120+i, "steady traffic")
	}
	for i := int64(0); i < 20; i++ {
		observe(t, e, 200+i, "steady traffic")
	}
	for i := int64(0); i < 10; i++ {
		observe(t, e, 250+i, "flashterm")
		observe(t, e, 250+i, "aardvark")
	}
	e.CloseThrough(300)
	if len(ivs) != 3 {
		t.Fatalf("%d intervals", len(ivs))
	}
	if ivs[0].Transient != nil {
		t.Errorf("interval inside the training window judged: %+v", ivs[0].Transient)
	}
	if tp := ivs[1].Transient; tp == nil || tp.Count != 0 {
		t.Errorf("steady interval 1: %+v, want a verdict with no transients", tp)
	}
	// Exactly the two flash terms, in sorted order (not map order).
	if tp := ivs[2].Transient; tp == nil || !slices.Equal(tp.Terms, []string{"aardvark", "flashterm"}) || tp.Count != 2 {
		t.Errorf("interval 2 transients = %+v, want [aardvark flashterm]", tp)
	}
}

func TestTransientsValidation(t *testing.T) {
	tr := queryTrace(100, trace.QueryRecord{Time: 0, Query: "xx"})
	if _, err := Transients(tr, 0, DefaultTransientConfig()); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Transients(tr, 10, TransientConfig{TrainFrac: 0, Ratio: 5, MinCount: 1}); err == nil {
		t.Error("zero TrainFrac accepted")
	}
	if _, err := Transients(tr, 10, TransientConfig{TrainFrac: 0.5, Ratio: 0.5, MinCount: 1}); err == nil {
		t.Error("Ratio below 1 accepted")
	}
	if _, err := Transients(tr, 10, TransientConfig{TrainFrac: 0.5, Ratio: 5, MinCount: 1}); err == nil {
		t.Error("single-record trace accepted (training prefix degenerate)")
	}
	long := queryTrace(100)
	for i := int64(0); i < 50; i++ {
		long.Records = append(long.Records, trace.QueryRecord{Time: i, Query: "xx"})
	}
	if _, err := Transients(long, 10, TransientConfig{TrainFrac: math.NaN(), Ratio: 5, MinCount: 1}); err == nil {
		t.Error("NaN TrainFrac accepted")
	}
	if _, err := Transients(long, 10, TransientConfig{TrainFrac: 0.5, Ratio: math.NaN(), MinCount: 1}); err == nil {
		t.Error("NaN Ratio accepted")
	}
	silent := queryTrace(100)
	for i := int64(0); i < 50; i++ {
		q := "--"
		if i >= 25 {
			q = "xx"
		}
		silent.Records = append(silent.Records, trace.QueryRecord{Time: i, Query: q})
	}
	if _, err := Transients(silent, 10, TransientConfig{TrainFrac: 0.5, Ratio: 5, MinCount: 1}); err == nil {
		t.Error("training prefix without terms accepted")
	}
	eng, err := NewIntervalEngine(DefaultIntervalConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Observe(0, "xx"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Train(50, DefaultTransientConfig()); err == nil {
		t.Error("Train after Observe accepted")
	}
}

func TestTransientsDetectBurst(t *testing.T) {
	// 1000 queries over 1000s: steady "alpha beta", plus a burst of
	// "flashterm" in [600, 700).
	var recs []trace.QueryRecord
	for i := 0; i < 1000; i++ {
		q := "alpha beta"
		if i >= 600 && i < 700 && i%2 == 0 {
			q = "flashterm gamma"
		}
		recs = append(recs, trace.QueryRecord{Time: int64(i), Query: q})
	}
	tr := queryTrace(1000, recs...)
	pts, err := Transients(tr, 100, TransientConfig{TrainFrac: 0.2, Ratio: 4, MinCount: 5})
	if err != nil {
		t.Fatal(err)
	}
	burstIntervals := 0
	for _, p := range pts {
		for _, term := range p.Terms {
			if term == "alpha" || term == "beta" {
				t.Errorf("steady term %q flagged transient at t=%d", term, p.Start)
			}
			if term == "flashterm" {
				burstIntervals++
				if p.Start < 500 || p.Start >= 700 {
					t.Errorf("flashterm flagged outside burst window at t=%d", p.Start)
				}
			}
		}
	}
	if burstIntervals == 0 {
		t.Error("burst never detected")
	}
	sum := TransientSummary(pts)
	if sum.N != len(pts) {
		t.Errorf("summary N = %d", sum.N)
	}
}

func TestTransientsNoBurstsQuietTrace(t *testing.T) {
	var recs []trace.QueryRecord
	for i := 0; i < 500; i++ {
		recs = append(recs, trace.QueryRecord{Time: int64(i), Query: "steady eddy"})
	}
	pts, err := Transients(queryTrace(500, recs...), 50, DefaultTransientConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Count != 0 {
			t.Errorf("quiet trace flagged %d transients at t=%d: %v", p.Count, p.Start, p.Terms)
		}
	}
}

// --- Integration with the query generator: the three headline shapes. ---

func genWorkload(t *testing.T, seed uint64, fileTerms []string) *querygen.Workload {
	t.Helper()
	cfg := querygen.DefaultConfig(seed)
	cfg.Queries = 40000
	cfg.Duration = 48 * 3600
	cfg.FileTerms = fileTerms
	w, err := querygen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestIntegrationStabilityHigh(t *testing.T) {
	w := genWorkload(t, 21, nil)
	ivs, err := Intervals(w.Trace, DefaultIntervalConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := StabilitySeries(ivs)
	// Skip the warmup the paper also skips.
	var o stats.Online
	for _, p := range series[2:] {
		o.Add(p.Value)
	}
	if o.Mean() < 0.70 {
		t.Errorf("mean stability = %v, want > 0.70 (paper: >0.9 at full scale)", o.Mean())
	}
}

func TestIntegrationMismatchLow(t *testing.T) {
	// File terms: a synthetic ranked vocabulary. Overlap configured low.
	fileTerms := make([]string, 3000)
	for i := range fileTerms {
		fileTerms[i] = fmt.Sprintf("fterm%04d", i)
	}
	w := genWorkload(t, 22, fileTerms)
	ivs, err := Intervals(w.Trace, DefaultIntervalConfig())
	if err != nil {
		t.Fatal(err)
	}
	fstar := make(map[string]struct{})
	for _, s := range fileTerms[:200] {
		fstar[s] = struct{}{}
	}
	series := MismatchSeries(ivs, fstar)
	var o stats.Online
	for _, p := range series[2:] {
		o.Add(p.Value)
	}
	if o.Mean() > 0.25 {
		t.Errorf("mean mismatch similarity = %v, want < 0.25 (paper: <0.20)", o.Mean())
	}
}

func TestIntegrationTransientsLowMeanHighVariance(t *testing.T) {
	w := genWorkload(t, 23, nil)
	pts, err := Transients(w.Trace, 3600, DefaultTransientConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := TransientSummary(pts)
	if sum.Mean > 10 {
		t.Errorf("mean transient count = %v, want < 10 (paper: low mean)", sum.Mean)
	}
	if sum.Max < 1 {
		t.Error("no transients ever detected; generator bursts invisible")
	}
}

// checkAgainstReference fails t unless Intervals, StabilitySeries and
// Transients over tr agree with the map-based reference: the same error
// verdicts, the same intervals field for field and the same series.
func checkAgainstReference(t *testing.T, tr *trace.QueryTrace, icfg IntervalConfig, tcfg TransientConfig) {
	t.Helper()
	ivs, err := Intervals(tr, icfg)
	want, wantErr := refIntervals(tr, icfg)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Intervals error %v, reference %v", err, wantErr)
	}
	if len(ivs) != len(want) {
		t.Fatalf("%d intervals, reference %d", len(ivs), len(want))
	}
	for i, iv := range ivs {
		w := want[i]
		if iv.Index != w.Index || iv.Start != w.Start || iv.Queries != w.Queries || iv.Volume != w.Volume ||
			!maps.Equal(iv.Counts, w.Counts) || !maps.Equal(iv.Popular, w.Popular) {
			t.Fatalf("interval %d: %+v, reference %+v", i, iv, w)
		}
	}
	if len(ivs) > 0 && ivs[0].Stability != 1 {
		t.Fatalf("first interval's stability %v, want 1", ivs[0].Stability)
	}
	if got, want := StabilitySeries(ivs), refStabilitySeries(want); !slices.Equal(got, want) {
		t.Fatalf("stability %v, reference %v", got, want)
	}

	pts, err := Transients(tr, icfg.Interval, tcfg)
	wantPts, wantErr := refTransients(tr, icfg.Interval, tcfg)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Transients error %v, reference %v", err, wantErr)
	}
	if len(pts) != len(wantPts) {
		t.Fatalf("%d transient points, reference %d", len(pts), len(wantPts))
	}
	for i, p := range pts {
		w := wantPts[i]
		if p.Start != w.Start || p.Count != w.Count || !slices.Equal(p.Terms, w.Terms) {
			t.Fatalf("transient point %d: %+v, reference %+v", i, p, w)
		}
	}
}

func TestEngineMatchesReferenceOnGeneratedTrace(t *testing.T) {
	w := genWorkload(t, 23, nil)
	for _, iv := range []int64{900, 1800, 3600, 7200} {
		cfg := DefaultIntervalConfig()
		cfg.Interval = iv
		checkAgainstReference(t, w.Trace, cfg, DefaultTransientConfig())
	}
}

// fuzzVocab is the fuzz traces' vocabulary: a query is any subset of it.
var fuzzVocab = []string{"madonna", "music", "zebra", "rare", "Straße", "x1"}

// FuzzIntervalEngineVsReference replays random traces through the engine
// and the map-based reference. Times step by 0–3 seconds or jump whole
// intervals, so queries land on interval boundaries, share seconds and
// leave empty intervals; Duration pads trailing empty intervals; queries
// may be empty, so a training prefix can lack terms. The configuration
// bytes pick the popularity and transient rules. A copy of the trace with
// one record moved back in time must fail.
func FuzzIntervalEngineVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 3, 2, 3, 0x93, 1, 1, 2, 0, 0, 3, 4}, uint8(4), uint8(3), uint8(0x21))
	f.Add([]byte{3, 3, 3, 3, 0, 1, 0, 1, 0, 1, 3, 0x3f, 0xa1, 2, 2, 2}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, uint8(2), uint8(9), uint8(0xff))
	f.Fuzz(func(t *testing.T, data []byte, interval, pad, rules uint8) {
		icfg := IntervalConfig{
			Interval:        1 + int64(interval%8),
			PopularFrac:     []float64{0, 0.1, 0.25, 1}[rules&3],
			MinPopularCount: int(rules>>2) & 3,
		}
		tcfg := TransientConfig{
			TrainFrac: []float64{0.1, 0.3, 0.5, 0.9}[(rules>>4)&3],
			Ratio:     []float64{1.5, 4}[(rules>>6)&1],
			MinCount:  int(rules>>7) + int(pad&1),
		}
		tr := queryTrace(1)
		var now int64
		for i := 0; i+1 < len(data) && len(tr.Records) < 200; i += 2 {
			step, pick := data[i], data[i+1]
			now += int64(step & 3)
			if step&0x80 != 0 {
				now += icfg.Interval * int64(step>>4&7)
			}
			var q []string
			for k, w := range fuzzVocab {
				if pick&(1<<k) != 0 {
					q = append(q, w)
				}
			}
			tr.Records = append(tr.Records, trace.QueryRecord{Time: now, Query: fmt.Sprint(q)})
		}
		tr.Duration = now + 1 + int64(pad)%(3*icfg.Interval)
		checkAgainstReference(t, tr, icfg, tcfg)

		// Move one record before its predecessor: the engine refuses it.
		for i := len(tr.Records) - 1; i > 0; i-- {
			if prev := tr.Records[i-1].Time; prev > 0 {
				bad := queryTrace(tr.Duration, slices.Clone(tr.Records)...)
				bad.Records[i].Time = prev - 1
				if _, err := Intervals(bad, icfg); err == nil {
					t.Fatalf("Intervals accepted record %d at %d after %d", i, prev-1, prev)
				}
				break
			}
		}
	})
}

func BenchmarkIntervals(b *testing.B) {
	cfg := querygen.DefaultConfig(1)
	cfg.Queries = 50000
	cfg.Duration = 24 * 3600
	w, err := querygen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Intervals(w.Trace, DefaultIntervalConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
