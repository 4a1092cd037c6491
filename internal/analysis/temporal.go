package analysis

import (
	"bytes"
	"fmt"
	"maps"
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
	// Stability is the Figure 6 statistic: Jaccard(Q*_t, Q̃_t) between the
	// popular set and the persistently popular set Q̃_t = Q*_t ∩ Q*_{t−1}.
	// The first interval has no predecessor and reads 1.
	Stability float64
	// Transient is the Figure 5 verdict on the interval. It is nil unless
	// the engine was trained and the interval ends after the training
	// prefix.
	Transient *TransientPoint
}

// IntervalEngine is the one popularity engine behind Figures 5–7: it
// buckets a query stream into evaluation intervals and, as each closes,
// marks its popular terms, its stability against the previous interval
// and — once trained — its transiently popular terms. Feed it with
// Observe in non-decreasing time; each interval is handed to onClose as
// it closes. Memory is the stream's vocabulary plus the open interval.
type IntervalEngine struct {
	cfg     IntervalConfig
	onClose func(*Interval)

	open  *Interval           // the interval queries are counted into
	floor int64               // the least time Observe accepts
	prev  map[string]struct{} // the last closed interval's popular set
	vocab map[string]string   // one string per term seen, shared by every Counts
	buf   []byte              // token buffer reused across queries

	// Transient detection, set up by Train.
	tcfg       TransientConfig
	trainLeft  int            // training queries still to observe
	hist       map[string]int // per-term counts over the training prefix
	histVolume int
	trainEnd   int64          // one second past the last training query
	base       map[string]int // the open interval's counts when training ended
	baseVolume int
}

// NewIntervalEngine builds an engine. onClose may be nil.
func NewIntervalEngine(cfg IntervalConfig, onClose func(*Interval)) (*IntervalEngine, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("analysis: Interval must be positive, got %d", cfg.Interval)
	}
	// Every range check is written so that NaN fails it.
	if !(cfg.PopularFrac >= 0 && cfg.PopularFrac <= 1) {
		return nil, fmt.Errorf("analysis: PopularFrac out of range: %g", cfg.PopularFrac)
	}
	return &IntervalEngine{
		cfg:     cfg,
		onClose: onClose,
		open:    &Interval{Counts: map[string]int{}},
		vocab:   map[string]string{},
	}, nil
}

// Train makes the engine judge transients the paper's way: the first
// cfg.TrainFrac of a stream of total queries sets each term's historical
// rate, and every interval that ends after that prefix gets a Transient
// verdict. Call it before the first Observe.
func (e *IntervalEngine) Train(total int, cfg TransientConfig) error {
	if !(cfg.TrainFrac > 0 && cfg.TrainFrac < 1) {
		return fmt.Errorf("analysis: TrainFrac must be in (0,1), got %g", cfg.TrainFrac)
	}
	if !(cfg.Ratio > 1) {
		return fmt.Errorf("analysis: Ratio must exceed 1, got %g", cfg.Ratio)
	}
	n := int(float64(total) * cfg.TrainFrac)
	if n < 1 || n >= total {
		return fmt.Errorf("analysis: training prefix of %d queries is unusable", n)
	}
	if e.hist != nil || e.open.Index > 0 || e.open.Queries > 0 {
		return fmt.Errorf("analysis: Train must precede the first Observe")
	}
	e.tcfg, e.trainLeft, e.hist = cfg, n, map[string]int{}
	return nil
}

// Observe records one query at time now (seconds). Time must not go
// backwards; crossing an interval boundary closes the open interval.
func (e *IntervalEngine) Observe(now int64, query string) error {
	if now < e.floor {
		return fmt.Errorf("analysis: query time %d precedes %d", now, e.floor)
	}
	e.floor = now
	for now >= e.open.Start+e.cfg.Interval {
		e.close()
	}
	iv := e.open
	iv.Queries++
	e.buf = terms.AppendTokens(e.buf[:0], query)
	for rest := e.buf; len(rest) > 0; {
		k := bytes.IndexByte(rest, 0)
		tok, ok := e.vocab[string(rest[:k])]
		if !ok {
			tok = string(rest[:k])
			e.vocab[tok] = tok
		}
		rest = rest[k+1:]
		iv.Counts[tok]++
		iv.Volume++
		if e.trainLeft > 0 {
			e.hist[tok]++
			e.histVolume++
		}
	}
	if e.trainLeft > 0 {
		if e.trainLeft--; e.trainLeft == 0 {
			if e.histVolume == 0 {
				return fmt.Errorf("analysis: training prefix contains no terms")
			}
			e.trainEnd = now + 1
			e.base, e.baseVolume = maps.Clone(iv.Counts), iv.Volume
		}
	}
	return nil
}

// CloseThrough closes every interval that starts before end, empty ones
// included.
func (e *IntervalEngine) CloseThrough(end int64) {
	for e.open.Start < end {
		e.close()
	}
}

// close finalizes the open interval, hands it to onClose and opens the
// next.
func (e *IntervalEngine) close() {
	iv := e.open
	thresh := max(int(e.cfg.PopularFrac*float64(iv.Volume)), e.cfg.MinPopularCount)
	iv.Popular = map[string]struct{}{}
	for tok, c := range iv.Counts {
		if c >= thresh {
			iv.Popular[tok] = struct{}{}
		}
	}
	iv.Stability = 1
	if e.prev != nil {
		persist := map[string]struct{}{}
		for tok := range iv.Popular {
			if _, ok := e.prev[tok]; ok {
				persist[tok] = struct{}{}
			}
		}
		iv.Stability = stats.Jaccard(iv.Popular, persist)
	}
	if e.hist != nil && e.trainLeft == 0 && iv.Start+e.cfg.Interval > e.trainEnd {
		iv.Transient = e.transients(iv)
	}
	e.prev, e.base, e.baseVolume = iv.Popular, nil, 0
	e.open = &Interval{Index: iv.Index + 1, Start: iv.Start + e.cfg.Interval, Counts: map[string]int{}}
	e.floor = max(e.floor, e.open.Start)
	if e.onClose != nil {
		e.onClose(iv)
	}
}

// transients applies the transient test to the queries of iv that follow
// the training prefix.
func (e *IntervalEngine) transients(iv *Interval) *TransientPoint {
	tp := &TransientPoint{Start: iv.Start}
	volume := iv.Volume - e.baseVolume
	for tok, c := range iv.Counts {
		if c -= e.base[tok]; c == 0 || c < e.tcfg.MinCount {
			continue
		}
		// Historical expectation for this interval: the term's share of
		// training volume times this interval's volume.
		expected := float64(e.hist[tok]) / float64(e.histVolume) * float64(volume)
		if float64(c) >= e.tcfg.Ratio*expected+float64(e.tcfg.MinCount)-1 {
			tp.Terms = append(tp.Terms, tok)
		}
	}
	slices.Sort(tp.Terms)
	tp.Count = len(tp.Terms)
	return tp
}

// replay feeds a trace through an engine — trained on the trace's leading
// queries when train is non-nil — and closes it through tr.Duration.
func replay(tr *trace.QueryTrace, cfg IntervalConfig, train *TransientConfig, onClose func(*Interval)) error {
	e, err := NewIntervalEngine(cfg, onClose)
	if err != nil {
		return err
	}
	if tr.Duration <= 0 {
		return fmt.Errorf("analysis: trace has no duration")
	}
	if train != nil {
		if err := e.Train(len(tr.Records), *train); err != nil {
			return err
		}
	}
	for _, rec := range tr.Records {
		if rec.Time < 0 || rec.Time >= tr.Duration {
			return fmt.Errorf("analysis: query time %d outside trace duration %d", rec.Time, tr.Duration)
		}
		if err := e.Observe(rec.Time, rec.Query); err != nil {
			return err
		}
	}
	e.CloseThrough(tr.Duration)
	return nil
}

// Intervals buckets a query trace into evaluation intervals covering
// [0, Duration) and marks each interval's popular terms and stability.
// The records must be in non-decreasing time.
func Intervals(tr *trace.QueryTrace, cfg IntervalConfig) ([]*Interval, error) {
	var out []*Interval
	if err := replay(tr, cfg, nil, func(iv *Interval) { out = append(out, iv) }); err != nil {
		return nil, err
	}
	return out, nil
}

// SeriesPoint is one (time, value) sample of a per-interval series.
type SeriesPoint struct {
	Start int64
	Value float64
}

// StabilitySeries is the Figure 6 series: each interval's Stability from
// the second interval on. High values mean the popular vocabulary is
// stable from interval to interval.
func StabilitySeries(ivs []*Interval) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(ivs))
	for i := 1; i < len(ivs); i++ {
		out = append(out, SeriesPoint{Start: ivs[i].Start, Value: ivs[i].Stability})
	}
	return out
}

// Mismatch is the Figure 7 statistic: the Jaccard similarity between a
// set of query terms and the file term set, 0 when both are empty (two
// empty sets share no term).
func Mismatch(queryTerms, fileTerms map[string]struct{}) float64 {
	if len(queryTerms)+len(fileTerms) == 0 {
		return 0
	}
	return stats.Jaccard(queryTerms, fileTerms)
}

// MismatchSeries computes the Figure 7 series: for each interval, the
// Mismatch between the interval's popular query terms and the popular file
// term set F*.
func MismatchSeries(ivs []*Interval, fileTerms map[string]struct{}) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, SeriesPoint{Start: iv.Start, Value: Mismatch(iv.Popular, fileTerms)})
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
		out = append(out, SeriesPoint{Start: iv.Start, Value: Mismatch(all, fileTerms)})
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
// length: the number of transiently popular terms per interval after the
// training prefix, judged against per-term historical rates learned on it.
func Transients(tr *trace.QueryTrace, interval int64, cfg TransientConfig) ([]TransientPoint, error) {
	icfg := DefaultIntervalConfig()
	icfg.Interval = interval
	var out []TransientPoint
	err := replay(tr, icfg, &cfg, func(iv *Interval) {
		if iv.Transient != nil {
			out = append(out, *iv.Transient)
		}
	})
	if err != nil {
		return nil, err
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
