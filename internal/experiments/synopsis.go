package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"unique"

	"querycentric/internal/analysis"
	"querycentric/internal/gia"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/strategy"
	"querycentric/internal/synopsis"
	"querycentric/internal/terms"
	"querycentric/internal/zipf"
)

// SynopsisResult is the §VII extension experiment: success rates of plain
// flooding, static synopses and query-centric adaptive synopses under a
// drifting popular query vocabulary.
type SynopsisResult struct {
	Nodes           int
	Rounds          int
	QueriesPerRound int
	FloodSuccess    float64 // advertisement-free flood upper bound at equal TTL
	StaticSuccess   float64
	AdaptiveSuccess float64
}

// synopsisTTL is the routing depth used by all three systems.
const synopsisTTL = 4

// SynopsisAblation runs the adaptive-synopsis experiment: peers' content
// comes from the crawled object trace; queries use a sliding window of
// popular file terms (so popularity drifts round to round); the adaptive
// network re-advertises the popular set of the round the interval engine
// last closed.
func SynopsisAblation(e *Env) (*SynopsisResult, error) {
	tr, _, err := e.ObjectTrace()
	if err != nil {
		return nil, err
	}
	// Per-peer content term lists from the crawl. Tokens are canonicalised
	// (unique.Make) so the retained lists share one string per term instead
	// of pinning a lowered copy of every record name they were sliced from.
	content := make([][]string, tr.Peers)
	seen := make([]map[string]struct{}, tr.Peers)
	for i := range seen {
		seen[i] = map[string]struct{}{}
	}
	const maxTermsPerPeer = 120
	for _, rec := range tr.Records {
		if rec.Peer >= tr.Peers {
			continue
		}
		for _, tok := range terms.Tokenize(rec.Name) {
			if len(content[rec.Peer]) >= maxTermsPerPeer {
				break
			}
			tok = unique.Make(tok).Value()
			if _, dup := seen[rec.Peer][tok]; dup {
				continue
			}
			seen[rec.Peer][tok] = struct{}{}
			content[rec.Peer] = append(content[rec.Peer], tok)
		}
	}
	g, err := overlay.NewErdosRenyi(tr.Peers, 8, e.Seed+40)
	if err != nil {
		return nil, err
	}

	// The drifting query model: each round's hot vocabulary is a window
	// over the ranked file terms, sliding by half a window per round.
	ranked, err := e.FileTerms()
	if err != nil {
		return nil, err
	}
	// Hot vocabulary: a small sliding window over mid-ranked file terms.
	// Small, so the adaptive advertisement budget can cover it; mid-ranked,
	// so holding peers are scarce enough that synopsis visibility actually
	// gates success (the head terms are on nearly every peer).
	const window = 20
	const hotOffset = 200
	const rounds = 6
	queriesPerRound := max(e.P.SimTrials, 100)
	if need := hotOffset + window*(rounds+2); len(ranked) < need {
		return nil, fmt.Errorf("experiments: only %d file terms, need %d", len(ranked), need)
	}
	hotDist, err := zipf.New(window, 0.8)
	if err != nil {
		return nil, err
	}
	roundTerms := func(round int, r *rng.Source) []string {
		start := hotOffset + round*window/2
		out := make([]string, 0, 1)
		out = append(out, ranked[start+hotDist.Sample(r)-1].Term)
		return out
	}

	res := &SynopsisResult{Nodes: tr.Peers, Rounds: rounds, QueriesPerRound: queriesPerRound}

	// Flood upper bound: success if any peer within TTL holds the terms.
	cov := overlay.NewCoverage(g)
	has := func(v int32, q []string) bool {
		for _, t := range q {
			if _, ok := seen[v][t]; !ok {
				return false
			}
		}
		return true
	}
	fr := rng.NewNamed(e.Seed, "experiments/synopsis-flood")
	var flood strategy.Tally
	for round := 1; round < rounds; round++ {
		for i := 0; i < queriesPerRound; i++ {
			q := roundTerms(round, fr)
			origin := fr.Intn(tr.Peers)
			found := has(int32(origin), q)
			if !found {
				found = slices.ContainsFunc(cov.Reached(origin, synopsisTTL), func(v int32) bool { return has(v, q) })
			}
			flood.Add(strategy.Outcome{Found: found})
		}
	}
	res.FloodSuccess = flood.Success()

	run := func(adaptive bool) (float64, error) {
		scfg := synopsis.DefaultConfig(e.Seed + 41)
		scfg.SynopsisTerms = 16
		scfg.Adaptive = adaptive
		net, err := synopsis.New(g, content, scfg)
		if err != nil {
			return 0, err
		}
		icfg := analysis.DefaultIntervalConfig()
		icfg.Interval = 1 // one "interval" per round
		var popular map[string]struct{}
		eng, err := analysis.NewIntervalEngine(icfg, func(iv *analysis.Interval) { popular = iv.Popular })
		if err != nil {
			return 0, err
		}
		qr := rng.NewNamed(e.Seed, fmt.Sprintf("experiments/synopsis-run-%v", adaptive))
		var t strategy.Tally
		for round := 0; round < rounds; round++ {
			// Queries of this round: measure (except round 0, warmup) and
			// feed the engine.
			for i := 0; i < queriesPerRound; i++ {
				q := roundTerms(round, qr)
				if round > 0 {
					r, err := net.Search(qr.Intn(tr.Peers), q, synopsisTTL)
					if err != nil {
						return 0, err
					}
					t.Add(strategy.Outcome{Found: r.Found})
				}
				if err := eng.Observe(int64(round), strings.Join(q, " ")); err != nil {
					return 0, err
				}
			}
			eng.CloseThrough(int64(round) + 1)
			if err := net.SetPopular(slices.Collect(maps.Keys(popular))); err != nil {
				return 0, err
			}
		}
		return t.Success(), nil
	}
	if res.StaticSuccess, err = run(false); err != nil {
		return nil, err
	}
	if res.AdaptiveSuccess, err = run(true); err != nil {
		return nil, err
	}
	return res, nil
}

// GiaResult compares Gia under its published uniform evaluation against
// the measured Zipf placement (the §VI Related Work rebuttal).
type GiaResult struct {
	Nodes          int
	UniformSuccess float64 // 0.5% uniform replication, Gia's setting
	ZipfSuccess    float64
}

// GiaComparison reproduces the Gia rebuttal.
func GiaComparison(e *Env) (*GiaResult, error) {
	nodes := e.P.SimNodes / 8
	if nodes < 500 {
		nodes = 500
	}
	objects := 150
	reps := nodes / 200 // 0.5%
	if reps < 1 {
		reps = 1
	}
	uni, err := search.UniformPlacement(nodes, objects, reps, e.Seed+50)
	if err != nil {
		return nil, err
	}
	zpf, err := search.ZipfPlacement(nodes, objects, 2.45, nodes/10, e.Seed+51)
	if err != nil {
		return nil, err
	}
	pick := func(r *rng.Source) int { return r.Intn(objects) }
	trials := e.P.SimTrials / 2
	if trials < 100 {
		trials = 100
	}
	sysU, err := gia.New(nodes, uni, gia.DefaultConfig(e.Seed+52))
	if err != nil {
		return nil, err
	}
	sysZ, err := gia.New(nodes, zpf, gia.DefaultConfig(e.Seed+52))
	if err != nil {
		return nil, err
	}
	res := &GiaResult{Nodes: nodes}
	if res.UniformSuccess, err = sysU.SuccessRate(128, trials, pick, e.Seed+53); err != nil {
		return nil, err
	}
	if res.ZipfSuccess, err = sysZ.SuccessRate(128, trials, pick, e.Seed+53); err != nil {
		return nil, err
	}
	return res, nil
}
