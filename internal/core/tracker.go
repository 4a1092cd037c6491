// Package core is the paper's primary contribution turned into a reusable
// component: an *online* query-centric popularity engine that a P2P node
// (or an analysis pipeline) feeds its observed query stream, and that
// maintains, per evaluation interval —
//
//   - the popular query-term set Q*_t,
//   - the persistently popular set Q̃_t = Q*_t ∩ Q*_{t−1},
//   - the transiently popular terms (significant deviations from the
//     trained historical rate),
//   - the interval-to-interval stability series (Figure 6), and
//   - on request, the similarity against a file-term set (Figure 7).
//
// The Tracker is what the adaptive-synopsis system (internal/synopsis)
// consumes: its Popular set drives which content terms a peer advertises.
// Unlike the offline functions in internal/analysis, the Tracker works
// incrementally over an unbounded stream with O(active terms) memory.
package core

import (
	"fmt"
	"slices"

	"querycentric/internal/stats"
	"querycentric/internal/terms"
)

// TrackerConfig tunes the online engine.
type TrackerConfig struct {
	// Interval is the evaluation interval in seconds.
	Interval int64
	// PopularFrac and MinPopularCount define interval popularity exactly
	// as analysis.IntervalConfig does.
	PopularFrac     float64
	MinPopularCount int
	// TrainIntervals is how many leading intervals feed the historical
	// model before transient detection starts.
	TrainIntervals int
	// TransientRatio and TransientMinCount mirror analysis.TransientConfig.
	TransientRatio    float64
	TransientMinCount int
	// HistoryDecay in (0,1] exponentially ages the historical rates each
	// interval; 1 keeps an all-time average. Aging lets the tracker follow
	// slow drift, which the offline analysis cannot.
	HistoryDecay float64
}

// DefaultTrackerConfig matches the paper's 60-minute interval analysis.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{
		Interval:          3600,
		PopularFrac:       0.0025,
		MinPopularCount:   3,
		TrainIntervals:    4,
		TransientRatio:    5,
		TransientMinCount: 8,
		HistoryDecay:      1,
	}
}

// IntervalReport is emitted when an interval closes.
type IntervalReport struct {
	Index      int
	Start      int64
	Queries    int
	Volume     int
	Popular    map[string]struct{}
	Persistent map[string]struct{}
	Transients []string // sorted
	Stability  float64  // Jaccard(Q*_t, Q̃_t); NaN-free: 1 for the first interval
}

// Tracker is the online engine. Feed it with Observe in non-decreasing
// time order; completed intervals are reported through the callback given
// to NewTracker.
type Tracker struct {
	cfg     TrackerConfig
	onClose func(*IntervalReport)

	curIndex int
	curStart int64
	counts   map[string]int
	queries  int
	volume   int

	prevPopular map[string]struct{}
	history     map[string]float64 // decayed per-interval term rates
	histVolume  float64
	intervals   int
}

// NewTracker builds a Tracker. onClose may be nil.
func NewTracker(cfg TrackerConfig, onClose func(*IntervalReport)) (*Tracker, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("core: Interval must be positive, got %d", cfg.Interval)
	}
	// Every range check is written so that NaN fails it.
	if !(cfg.PopularFrac >= 0 && cfg.PopularFrac <= 1) {
		return nil, fmt.Errorf("core: PopularFrac out of range: %g", cfg.PopularFrac)
	}
	if !(cfg.TransientRatio > 1) {
		return nil, fmt.Errorf("core: TransientRatio must exceed 1, got %g", cfg.TransientRatio)
	}
	if !(cfg.HistoryDecay > 0 && cfg.HistoryDecay <= 1) {
		return nil, fmt.Errorf("core: HistoryDecay must be in (0,1], got %g", cfg.HistoryDecay)
	}
	if cfg.TrainIntervals < 1 {
		cfg.TrainIntervals = 1
	}
	return &Tracker{
		cfg:     cfg,
		onClose: onClose,
		counts:  map[string]int{},
		history: map[string]float64{},
	}, nil
}

// Observe records one query at the given time (seconds). Time must be
// non-decreasing; crossing an interval boundary closes the open interval.
func (t *Tracker) Observe(now int64, query string) error {
	if now < t.curStart {
		return fmt.Errorf("core: time went backwards: %d < %d", now, t.curStart)
	}
	for now >= t.curStart+t.cfg.Interval {
		t.closeInterval()
	}
	t.queries++
	for _, tok := range terms.Tokenize(query) {
		t.counts[tok]++
		t.volume++
	}
	return nil
}

// Flush closes the currently open interval (e.g. at end of stream).
func (t *Tracker) Flush() {
	t.closeInterval()
}

// closeInterval finalizes the open interval and starts the next.
func (t *Tracker) closeInterval() {
	rep := &IntervalReport{
		Index:   t.curIndex,
		Start:   t.curStart,
		Queries: t.queries,
		Volume:  t.volume,
		Popular: map[string]struct{}{},
	}
	thresh := int(t.cfg.PopularFrac * float64(t.volume))
	if thresh < t.cfg.MinPopularCount {
		thresh = t.cfg.MinPopularCount
	}
	for tok, c := range t.counts {
		if c >= thresh {
			rep.Popular[tok] = struct{}{}
		}
	}
	// Persistence and stability.
	rep.Persistent = map[string]struct{}{}
	if t.prevPopular != nil {
		for tok := range rep.Popular {
			if _, ok := t.prevPopular[tok]; ok {
				rep.Persistent[tok] = struct{}{}
			}
		}
		rep.Stability = stats.Jaccard(rep.Popular, rep.Persistent)
	} else {
		for tok := range rep.Popular {
			rep.Persistent[tok] = struct{}{}
		}
		rep.Stability = 1
	}
	// Transients against the trained history.
	if t.intervals >= t.cfg.TrainIntervals && t.histVolume > 0 {
		for tok, c := range t.counts {
			if c < t.cfg.TransientMinCount {
				continue
			}
			expected := t.history[tok] / t.histVolume * float64(t.volume)
			if float64(c) >= t.cfg.TransientRatio*expected+float64(t.cfg.TransientMinCount)-1 {
				rep.Transients = append(rep.Transients, tok)
			}
		}
		slices.Sort(rep.Transients)
	}
	// Fold this interval into the decayed history.
	if t.cfg.HistoryDecay < 1 {
		for tok := range t.history {
			t.history[tok] *= t.cfg.HistoryDecay
			if t.history[tok] < 1e-9 {
				delete(t.history, tok)
			}
		}
		t.histVolume *= t.cfg.HistoryDecay
	}
	for tok, c := range t.counts {
		t.history[tok] += float64(c)
	}
	t.histVolume += float64(t.volume)
	t.intervals++

	t.prevPopular = rep.Popular
	if t.onClose != nil {
		t.onClose(rep)
	}

	// Reset the open interval.
	t.curIndex++
	t.curStart += t.cfg.Interval
	t.counts = map[string]int{}
	t.queries = 0
	t.volume = 0
}

// Popular returns the most recently closed interval's popular set (nil
// before any interval closes).
func (t *Tracker) Popular() map[string]struct{} { return t.prevPopular }

// PopularTerms returns Popular as a slice (order unspecified).
func (t *Tracker) PopularTerms() []string {
	pop := t.Popular()
	out := make([]string, 0, len(pop))
	for tok := range pop {
		out = append(out, tok)
	}
	return out
}
