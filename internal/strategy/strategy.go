// Package strategy is what the query-centric search systems in this
// repository share: interest shortcuts (internal/shortcuts), Gia
// (internal/gia), the adaptive overlay (internal/adaptive) and the
// experiment runners that compare them. It is a contract, not an
// interface:
//
//   - one derivation contract (see WorkloadStream), so two strategies run
//     with the same (n, queries, pick, seed) observe the *identical*
//     sequence of (origin, object) pairs — arm-to-arm comparisons measure
//     the strategy, never the workload draw;
//   - one fold, Tally, and one Stats shape, so experiment tables render
//     uniformly;
//   - one trial loop, RunTrials, whose tally is byte-identical at every
//     worker count.
package strategy

import (
	"fmt"
	"strconv"

	"querycentric/internal/parallel"
	"querycentric/internal/rng"
)

// Stats is the common workload aggregate every strategy reports. Fields a
// strategy cannot populate stay zero (a static arm performs no rewiring;
// Chord-style baselines have no shortcut hits).
type Stats struct {
	// Queries is the number of queries issued.
	Queries int
	// Success is the fraction of queries answered.
	Success float64
	// ShortcutHits is the fraction of successes answered by an adapted
	// link (a shortcut probe or candidate probe) rather than a flood.
	ShortcutHits float64
	// MeanMessages is the mean protocol messages per query (probes plus
	// flood descriptors).
	MeanMessages float64
	// MeanHops is the mean hop count of the first answer over successes.
	MeanHops float64
	// Rewires and Replicas count topology swaps and replica installs the
	// strategy performed during the run (adaptive overlays only).
	Rewires  int
	Replicas int
}

// Outcome is what one query contributes to a Tally: whether it was
// answered, the hop count of its first answer and the messages it cost.
type Outcome struct {
	Found    bool
	Hops     int
	Messages int
}

// Tally is the one trial fold: every workload loop and experiment runner
// adds its per-query outcomes here and reads the success / cost means off
// it, the two axes every scheme in the repository is compared on. All
// sums are integers, so a Tally is independent of the order outcomes
// arrive in.
type Tally struct {
	Queries  int
	Hits     int
	Hops     int // summed first-answer hops over hits
	Messages int
}

// Add folds one query's outcome in.
func (t *Tally) Add(o Outcome) {
	t.Queries++
	if o.Found {
		t.Hits++
		t.Hops += o.Hops
	}
	t.Messages += o.Messages
}

// Merge folds another tally in.
func (t *Tally) Merge(o Tally) {
	t.Queries += o.Queries
	t.Hits += o.Hits
	t.Hops += o.Hops
	t.Messages += o.Messages
}

// Success is the fraction of queries answered (0 with no queries).
func (t Tally) Success() float64 { return ratio(t.Hits, t.Queries) }

// MeanMessages is the mean message cost per query (0 with no queries).
func (t Tally) MeanMessages() float64 { return ratio(t.Messages, t.Queries) }

// MeanHops is the mean first-answer hop count over hits (0 with no hits).
func (t Tally) MeanHops() float64 { return ratio(t.Hops, t.Hits) }

// Stats renders the tally in the unified Stats shape.
func (t Tally) Stats() *Stats {
	return &Stats{Queries: t.Queries, Success: t.Success(), MeanMessages: t.MeanMessages(), MeanHops: t.MeanHops()}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RunTrials is the deterministic trial loop (DESIGN.md §8) in one place:
// trials lo..hi-1 fan out over a bounded worker pool, trial i draws all its
// randomness from the private stream base.Derive(stream + i) and runs on its
// worker's own scratch, and the outcomes fold in index order — so the tally
// is byte-identical at every worker count. Callers keep their historical
// stream prefix ("trial/", "sample/3/trial/", ...) and with it their numbers.
func RunTrials[S any](workers, lo, hi int, base *rng.Source, stream string, newScratch func() S,
	trial func(scratch S, i int, r *rng.Source) (Outcome, error)) (Tally, error) {
	outs, err := parallel.MapWith(workers, hi-lo, newScratch, func(s S, j int) (Outcome, error) {
		i := lo + j
		return trial(s, i, base.Derive(stream+strconv.Itoa(i)))
	})
	var t Tally
	for _, o := range outs {
		t.Add(o)
	}
	return t, err
}

// WorkloadStream returns the base stream of the unified workload
// derivation. The contract every workload loop follows:
//
//	base := strategy.WorkloadStream(seed)
//	r := base.Derive(fmt.Sprintf("query/%d", i))  // query i's private stream
//	origin := r.Intn(n)
//	obj := pick(r)
//	... all of query i's remaining draws come from r, in a fixed order ...
//
// Per-query derived streams are order-independent, so a strategy may fan
// queries out over internal/parallel and still produce byte-identical
// results at every worker count — and two different strategies over the
// same population see the same (origin, object) sequence.
func WorkloadStream(seed uint64) *rng.Source {
	return rng.NewNamed(seed, "strategy/workload")
}

// QueryStream derives query i's private stream from the workload base.
func QueryStream(base *rng.Source, i int) *rng.Source {
	return base.Derive(fmt.Sprintf("query/%d", i))
}
