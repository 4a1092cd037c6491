package experiments

import (
	"querycentric/internal/analysis"
	"querycentric/internal/stats"
)

// Fig5Result is the transient-popularity sweep over evaluation intervals.
type Fig5Result struct {
	// PointsByInterval maps the evaluation interval (seconds) to the
	// per-interval transient counts.
	PointsByInterval map[int64][]analysis.TransientPoint
	// SummaryByInterval aggregates each series (the paper reports a low
	// mean with significant variance).
	SummaryByInterval map[int64]stats.Summary
}

// Fig5Intervals are the evaluation intervals swept (15, 30, 60, 120 min).
var Fig5Intervals = []int64{15 * 60, 30 * 60, 60 * 60, 120 * 60}

// Fig5 reproduces Figure 5: the number of transiently popular query terms
// per interval, for several evaluation interval lengths, after training on
// the leading 10% of the trace.
func Fig5(e *Env) (*Fig5Result, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{
		PointsByInterval:  map[int64][]analysis.TransientPoint{},
		SummaryByInterval: map[int64]stats.Summary{},
	}
	for _, iv := range Fig5Intervals {
		pts, err := analysis.Transients(w.Trace, iv, analysis.DefaultTransientConfig())
		if err != nil {
			return nil, err
		}
		out.PointsByInterval[iv] = pts
		out.SummaryByInterval[iv] = analysis.TransientSummary(pts)
	}
	return out, nil
}

// Fig6Result is the popular-term stability series.
type Fig6Result struct {
	Series []analysis.SeriesPoint
	// MeanAfterWarmup averages the series past the paper's warmup window
	// (the first intervals have no established history).
	MeanAfterWarmup float64
}

// Fig6 reproduces Figure 6: Jaccard(Q*_t, Q̃_t) over a one-week trace with
// a 60-minute evaluation interval. Paper: >90% after stabilization.
func Fig6(e *Env) (*Fig6Result, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	ivs, err := analysis.Intervals(w.Trace, analysis.DefaultIntervalConfig())
	if err != nil {
		return nil, err
	}
	series := analysis.StabilitySeries(ivs)
	return &Fig6Result{Series: series, MeanAfterWarmup: meanAfterWarmup(series)}, nil
}

// meanAfterWarmup averages a per-interval series past its first two
// points, the warmup the paper skips.
func meanAfterWarmup(series []analysis.SeriesPoint) float64 {
	var o stats.Online
	for _, p := range series[min(2, len(series)):] {
		o.Add(p.Value)
	}
	return o.Mean()
}

// Fig7Result is the query/file mismatch series.
type Fig7Result struct {
	// PopularSeries compares popular query terms per interval with the
	// popular file terms F* (the figure's series).
	PopularSeries []analysis.SeriesPoint
	// AllTermsSeries compares every query term per interval with F* (the
	// paper's "5% similarity" statistic).
	AllTermsSeries []analysis.SeriesPoint
	MeanPopular    float64
	MeanAllTerms   float64
	// RankCorrelation is Spearman's ρ between file-term and query-term
	// popularity over the popular file vocabulary — the companion paper's
	// statistic ("little overall correlation between the relative
	// popularity of the query terms and the terms used in the file
	// annotations").
	RankCorrelation float64
}

// fStarSize is the size of the popular file term set F*.
const fStarSize = 500

// Fig7 reproduces Figure 7: the Jaccard similarity between interval query
// terms and the popular file terms stays low (<20%) at every interval.
func Fig7(e *Env) (*Fig7Result, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	ranked, err := e.FileTerms()
	if err != nil {
		return nil, err
	}
	fstar := analysis.TopTerms(ranked, fStarSize)
	ivs, err := analysis.Intervals(w.Trace, analysis.DefaultIntervalConfig())
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{
		PopularSeries:  analysis.MismatchSeries(ivs, fstar),
		AllTermsSeries: analysis.AllTermsMismatchSeries(ivs, fstar),
	}
	out.MeanPopular = meanAfterWarmup(out.PopularSeries)
	out.MeanAllTerms = meanAfterWarmup(out.AllTermsSeries)

	// Rank correlation between file popularity and query popularity over
	// the popular file vocabulary.
	queryCounts := map[string]int{}
	for _, iv := range ivs {
		for tok, c := range iv.Counts {
			queryCounts[tok] += c
		}
	}
	var fx, qy []float64
	for _, tc := range ranked[:min(len(ranked), fStarSize)] {
		fx = append(fx, float64(tc.Count))
		qy = append(qy, float64(queryCounts[tc.Term]))
	}
	if rho, err := stats.SpearmanRank(fx, qy); err == nil {
		out.RankCorrelation = rho
	}
	return out, nil
}

// SweepPoint is one evaluation-interval setting's mean statistic.
type SweepPoint struct {
	Interval  int64
	MeanValue float64
}

// intervalSweepResult pairs the Figure 6 and Figure 7 sweeps, one row per
// evaluation interval.
type intervalSweepResult struct {
	Stability, Mismatch []SweepPoint
}

// intervalSweep repeats the Figure 6 stability and Figure 7 mismatch
// analyses across the Figure 5 evaluation intervals (the paper: "we
// witnessed consistent results across the different evaluation
// intervals", and the similarity "remained low (< 20%) for all evaluation
// interval values"), bucketing the trace once per interval length.
func intervalSweep(e *Env) (*intervalSweepResult, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	ranked, err := e.FileTerms()
	if err != nil {
		return nil, err
	}
	fstar := analysis.TopTerms(ranked, fStarSize)
	out := &intervalSweepResult{}
	for _, iv := range Fig5Intervals {
		cfg := analysis.DefaultIntervalConfig()
		cfg.Interval = iv
		ivs, err := analysis.Intervals(w.Trace, cfg)
		if err != nil {
			return nil, err
		}
		out.Stability = append(out.Stability, SweepPoint{Interval: iv, MeanValue: meanAfterWarmup(analysis.StabilitySeries(ivs))})
		out.Mismatch = append(out.Mismatch, SweepPoint{Interval: iv, MeanValue: meanAfterWarmup(analysis.MismatchSeries(ivs, fstar))})
	}
	return out, nil
}
