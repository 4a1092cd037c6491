package analysis

import (
	"fmt"
	"slices"

	"querycentric/internal/stats"
	"querycentric/internal/terms"
	"querycentric/internal/trace"
)

// IntervalConfig controls how query traces are bucketed and what counts as
// "popular" within an evaluation interval.
type IntervalConfig struct {
	// Interval is the evaluation interval in seconds (the paper sweeps 15,
	// 30, 60, 120 minutes and reports 60 in Figures 6–7).
	Interval int64
	// PopularFrac: a term is popular in an interval when its occurrence
	// count is at least PopularFrac of the interval's term volume.
	PopularFrac float64
	// MinPopularCount floors the popularity threshold so near-empty
	// intervals don't declare everything popular.
	MinPopularCount int
}

// DefaultIntervalConfig matches the paper's 60-minute evaluation interval.
func DefaultIntervalConfig() IntervalConfig {
	return IntervalConfig{Interval: 3600, PopularFrac: 0.0025, MinPopularCount: 3}
}

// Interval is one evaluation interval's term statistics.
type Interval struct {
	Index   int   // interval number
	Start   int64 // start time in seconds
	Queries int   // queries observed
	Volume  int   // term occurrences observed
	Counts  map[string]int
	Popular map[string]struct{}
}

// Intervals buckets a query trace into evaluation intervals and marks each
// interval's popular terms.
func Intervals(tr *trace.QueryTrace, cfg IntervalConfig) ([]*Interval, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("analysis: Interval must be positive, got %d", cfg.Interval)
	}
	if cfg.PopularFrac < 0 || cfg.PopularFrac > 1 {
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

// SeriesPoint is one (time, value) sample of a per-interval series.
type SeriesPoint struct {
	Start int64
	Value float64
}

// StabilitySeries computes the Figure 6 series: for each interval t>0 the
// Jaccard similarity between the interval's popular set Q*_t and the
// persistently popular set Q̃_t = Q*_t ∩ Q*_{t−1}. High values mean the
// popular vocabulary is stable from interval to interval.
func StabilitySeries(ivs []*Interval) []SeriesPoint {
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

// MismatchSeries computes the Figure 7 series: for each interval, the
// Jaccard similarity between the interval's popular query terms and the
// popular file term set F*.
func MismatchSeries(ivs []*Interval, fileTerms map[string]struct{}) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, SeriesPoint{Start: iv.Start, Value: stats.Jaccard(iv.Popular, fileTerms)})
	}
	return out
}

// AllTermsMismatchSeries is the variant using every query term observed in
// the interval, not only the popular ones (the paper's 5% statistic).
func AllTermsMismatchSeries(ivs []*Interval, fileTerms map[string]struct{}) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(ivs))
	for _, iv := range ivs {
		all := make(map[string]struct{}, len(iv.Counts))
		for t := range iv.Counts {
			all[t] = struct{}{}
		}
		out = append(out, SeriesPoint{Start: iv.Start, Value: stats.Jaccard(all, fileTerms)})
	}
	return out
}

// TransientConfig controls transient-popularity detection (Figure 5).
type TransientConfig struct {
	// TrainFrac is the fraction of the trace (by query count, from the
	// start) used to establish each term's historical rate.
	TrainFrac float64
	// Ratio: a term is transiently popular in an interval when its count
	// is at least Ratio times its historically expected count there.
	Ratio float64
	// MinCount floors the interval count so rare-term noise (expected
	// count ~0) doesn't read as a burst.
	MinCount int
}

// DefaultTransientConfig mirrors the paper's method: train on the first 10%
// of queries, flag significant deviations from the historical average.
func DefaultTransientConfig() TransientConfig {
	return TransientConfig{TrainFrac: 0.10, Ratio: 5, MinCount: 8}
}

// TransientPoint reports the transiently popular terms of one interval.
type TransientPoint struct {
	Start int64
	Terms []string
	Count int
}

// Transients computes the Figure 5 series for one evaluation interval
// length: the number of transiently popular terms per interval, judged
// against per-term historical rates learned on the training prefix.
func Transients(tr *trace.QueryTrace, interval int64, cfg TransientConfig) ([]TransientPoint, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("analysis: interval must be positive")
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		return nil, fmt.Errorf("analysis: TrainFrac must be in (0,1), got %g", cfg.TrainFrac)
	}
	if cfg.Ratio <= 1 {
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
	ivs, err := Intervals(evalTrace, IntervalConfig{Interval: interval, PopularFrac: 1, MinPopularCount: 1 << 30})
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
			// Historical expectation for this interval: the term's share
			// of training volume times this interval's volume.
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

// TransientSummary aggregates a Figure 5 series into the mean and variance
// the paper reports ("the overall mean was low, but there was significant
// variance").
func TransientSummary(points []TransientPoint) stats.Summary {
	var o stats.Online
	for _, p := range points {
		o.Add(float64(p.Count))
	}
	return o.Summary()
}
