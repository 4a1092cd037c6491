// Package querygen generates synthetic Gnutella query workloads with the
// temporal structure the paper measured in its one-week Phex trace:
//
//   - a stable core of persistently popular terms (the paper found >90%
//     Jaccard similarity between consecutive intervals' popular terms);
//   - transiently popular terms that flare up for a bounded window and
//     then fade (low mean count per interval, high variance — Figure 5);
//   - a long Zipf tail of rare terms;
//   - a controlled, *low* overlap between the query vocabulary and the
//     file-annotation vocabulary (the paper's central mismatch finding —
//     Figure 7 shows <20% similarity).
//
// The model is a three-way mixture. Each query term comes from the
// persistent core (probability coreMass), from the currently active
// transient bursts (burstMass, when any burst is active), or from the Zipf
// tail. The core is deliberately flat-ish so every core term clears any
// reasonable per-interval popularity threshold, which is exactly the
// "bulk of popular terms are persistently popular" structure observed.
package querygen

import (
	"fmt"
	"math"
	"sort"

	"querycentric/internal/rng"
	"querycentric/internal/trace"
	"querycentric/internal/vocab"
	"querycentric/internal/zipf"
)

// Config shapes a workload.
type Config struct {
	Seed     uint64
	Duration int64 // seconds covered by the trace (one week = 604800)
	Queries  int   // total queries to emit

	// FileTerms, if non-nil, is the file-annotation term vocabulary ranked
	// by popularity (most popular first). CoreFileOverlap of the core and
	// TailFileOverlap of the tail are drawn from it; everything else is
	// query-only vocabulary. This is the knob behind Figure 7.
	FileTerms       []string
	CoreFileOverlap float64
	TailFileOverlap float64

	// Query shape.
	MaxTermsPerQuery int // terms per query drawn uniformly in [1, max]
}

// Vocabulary structure.
const (
	coreSize          = 120   // persistently popular terms
	tailSize          = 20000 // rare terms
	coreMass  float64 = 0.55  // probability a term is drawn from the core
	coreZipfS float64 = 0.4   // within-core Zipf exponent (small ⇒ flat core)
	tailZipfS float64 = 1.05  // within-tail Zipf exponent
)

// Transient bursts (Figure 5).
const (
	burstsPerDay  float64 = 10       // expected new bursts per day
	burstDuration int64   = 4 * 3600 // seconds a burst stays active
	burstMass     float64 = 0.04     // probability a term comes from the active bursts
)

// diurnalAmplitude modulates query arrival density over the day (rate ∝
// 1 + A·sin(2πt/86400)); real traces show strong diurnal cycles, which is
// part of Figure 5's per-interval variance.
const diurnalAmplitude float64 = 0.3

// DefaultConfig is the scaled one-week workload.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		Duration:         7 * 24 * 3600,
		Queries:          250000,
		CoreFileOverlap:  0.35,
		TailFileOverlap:  0.25,
		MaxTermsPerQuery: 3,
	}
}

// Workload is a generated query trace plus the ground truth the ablation
// experiments compare against.
type Workload struct {
	Trace *trace.QueryTrace
	// Core is the persistent popular vocabulary (ground truth).
	Core []string
	// Tail is the rare-term vocabulary.
	Tail []string
	// Bursts records every scheduled transient burst.
	Bursts []Burst
}

// Burst is one scheduled transient popularity episode.
type Burst struct {
	Term  string
	Start int64
	End   int64
}

// Generate builds the workload for cfg.
func Generate(cfg Config) (*Workload, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("querygen: Queries must be positive, got %d", cfg.Queries)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("querygen: Duration must be positive, got %d", cfg.Duration)
	}
	for _, p := range []float64{cfg.CoreFileOverlap, cfg.TailFileOverlap} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("querygen: probability out of range in config")
		}
	}
	if cfg.MaxTermsPerQuery <= 0 {
		cfg.MaxTermsPerQuery = 3
	}

	w := &Workload{}
	var err error
	if w.Core, w.Tail, err = buildVocab(cfg); err != nil {
		return nil, err
	}
	coreDist, err := zipf.New(len(w.Core), coreZipfS)
	if err != nil {
		return nil, err
	}
	tailDist, err := zipf.New(len(w.Tail), tailZipfS)
	if err != nil {
		return nil, err
	}

	// Schedule bursts over the timeline: Poisson arrivals at burstsPerDay,
	// each boosting one tail term for burstDuration.
	bRNG := rng.NewNamed(cfg.Seed, "querygen/bursts")
	days := float64(cfg.Duration) / 86400
	n := bRNG.Poisson(burstsPerDay * days)
	for i := 0; i < n; i++ {
		start := int64(bRNG.Float64() * float64(cfg.Duration))
		// Burst terms come uniformly from the tail: transiently hot
		// terms are ones with little standing popularity, which is
		// what makes their deviation from history detectable.
		w.Bursts = append(w.Bursts, Burst{
			Term:  w.Tail[bRNG.Intn(len(w.Tail))],
			Start: start,
			End:   start + burstDuration,
		})
	}
	sort.Slice(w.Bursts, func(i, j int) bool { return w.Bursts[i].Start < w.Bursts[j].Start })
	clock := newDiurnalClock(cfg.Duration)

	qRNG := rng.NewNamed(cfg.Seed, "querygen/queries")
	tr := &trace.QueryTrace{Source: "querygen", Duration: cfg.Duration}
	tr.Records = make([]trace.QueryRecord, 0, cfg.Queries)

	active := newBurstWindow(w.Bursts)
	for i := 0; i < cfg.Queries; i++ {
		t := clock.at(float64(i) / float64(cfg.Queries))
		activeTerms := active.at(t)
		nTerms := 1 + qRNG.Intn(cfg.MaxTermsPerQuery)
		qterms := make([]string, 0, nTerms)
		for j := 0; j < nTerms; j++ {
			qterms = append(qterms, sampleTerm(w, coreDist, tailDist, activeTerms, qRNG))
		}
		tr.Records = append(tr.Records, trace.QueryRecord{Time: t, Query: join(qterms)})
	}
	w.Trace = tr
	return w, nil
}

// sampleTerm draws one query term from the three-way mixture.
func sampleTerm(w *Workload, core, tail *zipf.Dist, bursts []string, r *rng.Source) string {
	u := r.Float64()
	switch {
	case u < coreMass:
		return w.Core[core.Sample(r)-1]
	case u < coreMass+burstMass && len(bursts) > 0:
		return bursts[r.Intn(len(bursts))]
	default:
		return w.Tail[tail.Sample(r)-1]
	}
}

// buildVocab assembles the core and tail vocabularies, drawing the
// configured overlap fractions from the (ranked) file terms.
func buildVocab(cfg Config) (core, tail []string, err error) {
	own := vocab.Words(cfg.Seed, "querygen/query-only", coreSize+tailSize)
	fileHead, fileRest := splitFileTerms(cfg.FileTerms, coreSize)

	pick := rng.NewNamed(cfg.Seed, "querygen/vocab-mix")
	seen := map[string]struct{}{}
	add := func(dst *[]string, s string) bool {
		if _, dup := seen[s]; dup {
			return false
		}
		seen[s] = struct{}{}
		*dst = append(*dst, s)
		return true
	}

	ownIdx := 0
	nextOwn := func() string {
		for ownIdx < len(own) {
			s := own[ownIdx]
			ownIdx++
			if _, dup := seen[s]; !dup {
				return s
			}
		}
		// Vocabulary exhausted by duplicates; extend deterministically.
		return fmt.Sprintf("qterm%d", ownIdx)
	}

	// Draw the file-term quota as distinct samples (shuffled prefix), then
	// top up with query-only words; a with-replacement draw would silently
	// undershoot the configured overlap on small pools.
	takeFile := func(dst *[]string, pool []string, quota int) {
		if quota <= 0 || len(pool) == 0 {
			return
		}
		order := pick.Perm(len(pool))
		for _, idx := range order {
			if quota == 0 {
				return
			}
			if add(dst, pool[idx]) {
				quota--
			}
		}
	}
	takeFile(&core, fileHead, int(float64(coreSize)*cfg.CoreFileOverlap))
	for len(core) < coreSize {
		add(&core, nextOwn())
	}
	takeFile(&tail, fileRest, int(float64(tailSize)*cfg.TailFileOverlap))
	for len(tail) < tailSize {
		add(&tail, nextOwn())
	}
	return core, tail, nil
}

// splitFileTerms separates the popular head of the ranked file terms from
// the rest.
func splitFileTerms(fileTerms []string, headSize int) (head, rest []string) {
	if len(fileTerms) == 0 {
		return nil, nil
	}
	h := headSize
	if h > len(fileTerms) {
		h = len(fileTerms)
	}
	return fileTerms[:h], fileTerms[h:]
}

// burstWindow iterates active bursts along a non-decreasing time cursor.
type burstWindow struct {
	bursts []Burst
	next   int
	active []Burst
}

func newBurstWindow(bursts []Burst) *burstWindow {
	return &burstWindow{bursts: bursts}
}

// at returns the terms of bursts active at time t. Calls must have
// non-decreasing t.
func (bw *burstWindow) at(t int64) []string {
	for bw.next < len(bw.bursts) && bw.bursts[bw.next].Start <= t {
		bw.active = append(bw.active, bw.bursts[bw.next])
		bw.next++
	}
	out := bw.active[:0]
	var terms []string
	for _, b := range bw.active {
		if b.End > t {
			out = append(out, b)
			terms = append(terms, b.Term)
		}
	}
	bw.active = out
	return terms
}

// diurnalClock maps a query's quantile u ∈ [0,1) to its arrival time so
// that the arrival rate follows 1 + A·sin(2πt/day): the inverse of the
// cumulative rate, tabulated per minute and interpolated.
type diurnalClock struct {
	duration int64
	cum      []float64 // cum[i] = normalized arrivals in [0, i minutes]
}

func newDiurnalClock(duration int64) *diurnalClock {
	c := &diurnalClock{duration: duration}
	minutes := int(duration/60) + 1
	c.cum = make([]float64, minutes+1)
	total := 0.0
	for i := 0; i < minutes; i++ {
		t := float64(i) * 60
		rate := 1 + diurnalAmplitude*math.Sin(2*math.Pi*t/86400)
		total += rate
		c.cum[i+1] = total
	}
	for i := range c.cum {
		c.cum[i] /= total
	}
	return c
}

// at returns the arrival time for quantile u.
func (c *diurnalClock) at(u float64) int64 {
	// Binary search the minute whose cumulative share covers u.
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	minute := lo - 1
	if minute < 0 {
		minute = 0
	}
	// Interpolate inside the minute.
	span := c.cum[minute+1] - c.cum[minute]
	frac := 0.0
	if span > 0 {
		frac = (u - c.cum[minute]) / span
	}
	t := int64((float64(minute) + frac) * 60)
	if t >= c.duration {
		t = c.duration - 1
	}
	if t < 0 {
		t = 0
	}
	return t
}

func join(terms []string) string {
	n := 0
	for _, t := range terms {
		n += len(t) + 1
	}
	b := make([]byte, 0, n)
	for i, t := range terms {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t...)
	}
	return string(b)
}
