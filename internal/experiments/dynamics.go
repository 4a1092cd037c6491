package experiments

import (
	"fmt"

	"querycentric/internal/churn"
	"querycentric/internal/events"
	"querycentric/internal/overlay"
	"querycentric/internal/parallel"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/strategy"
)

// ChurnResult compares search availability under session churn for uniform
// vs Zipf placements.
type ChurnResult struct {
	Nodes          int
	MeanOnline     float64
	UniformSuccess float64
	ZipfSuccess    float64
	// Series carry the per-sample success over time for plotting.
	UniformSeries []churn.Sample
	ZipfSeries    []churn.Sample
}

// ChurnComparison runs the churn experiment: the same overlay and session
// process, measured against the uniform placement prior evaluations
// assumed and the Zipf placement the paper observed. Churn amplifies the
// Zipf penalty: most objects have a single copy whose availability is one
// peer's uptime.
func ChurnComparison(e *Env) (*ChurnResult, error) {
	nodes := max(e.P.SimNodes/16, 400)
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), e.Seed+80)
	if err != nil {
		return nil, err
	}
	objects := 80
	uni, err := search.UniformPlacement(nodes, objects, max(nodes/50, 2), e.Seed+81)
	if err != nil {
		return nil, err
	}
	zpf, err := search.ZipfPlacement(nodes, objects, 2.45, nodes/10, e.Seed+81)
	if err != nil {
		return nil, err
	}
	cfg := churn.DefaultConfig(e.Seed + 82)
	cfg.Duration = 2 * 3600
	cfg.QueriesPerSample = max(e.P.SimTrials/4, 50)
	// events.RunGraphChurn validates too, but failing here keeps the error out of the
	// fanned-out goroutines and names the experiment that built the config.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: churn comparison config: %w", err)
	}
	// The two placements are measured over independent churn runs; fan
	// them out (each run is internally deterministic from its own config).
	places := []*search.Placement{uni, zpf}
	runs, err := parallel.Map(e.workers(), len(places), func(i int) (*churn.Result, error) {
		return events.RunGraphChurn(g, places[i], cfg)
	})
	if err != nil {
		return nil, err
	}
	rUni, rZpf := runs[0], runs[1]
	return &ChurnResult{
		Nodes:          nodes,
		MeanOnline:     rUni.MeanOnline,
		UniformSuccess: rUni.MeanSuccess,
		ZipfSuccess:    rZpf.MeanSuccess,
		UniformSeries:  rUni.Samples,
		ZipfSeries:     rZpf.Samples,
	}, nil
}

// WalkVsFloodResult compares the two unstructured mechanisms the paper's
// related work discusses, at (approximately) equal message budgets.
type WalkVsFloodResult struct {
	Nodes         int
	FloodSuccess  float64
	FloodMessages float64 // mean per query
	WalkSuccess   float64
	WalkMessages  float64
	RingSuccess   float64 // expanding ring
	RingMessages  float64
}

// WalkVsFlood measures TTL-3 flooding, 16-walker random walks and the
// expanding ring over the same Zipf placement. The paper's point applies
// to all three: none can find what is barely replicated; the mechanisms
// differ only in how much they pay to fail.
func WalkVsFlood(e *Env) (*WalkVsFloodResult, error) {
	nodes := max(e.P.SimNodes/8, 500)
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), e.Seed+90)
	if err != nil {
		return nil, err
	}
	objects := 200
	p, err := search.ZipfPlacement(nodes, objects, 2.45, nodes/10, e.Seed+91)
	if err != nil {
		return nil, err
	}
	eng, err := search.NewEngine(g, p)
	if err != nil {
		return nil, err
	}
	trials := max(e.P.SimTrials, 150)
	base := rng.NewNamed(e.Seed, "experiments/walk-vs-flood")
	// Trial i draws origin, object and walk randomness from the derived
	// stream "trial/i"; each worker searches through its own Searcher. One
	// trial runs all three mechanisms on the same (origin, object).
	const flood, walk, ring = 0, 1, 2
	out, err := parallel.MapWith(e.workers(), trials, eng.NewSearcher,
		func(s *search.Searcher, i int) (res [3]search.Result, err error) {
			r := base.Derive(fmt.Sprintf("trial/%d", i))
			origin := r.Intn(nodes)
			obj := r.Intn(objects)
			if res[flood], err = s.Flood(origin, obj, 3); err != nil {
				return res, err
			}
			// Walker budget below the flood cost (8 walkers × 48 steps).
			if res[walk], err = s.RandomWalk(origin, obj, 8, 48, r); err != nil {
				return res, err
			}
			res[ring], err = s.ExpandingRing(origin, obj, 3)
			return res, err
		})
	if err != nil {
		return nil, err
	}
	var tally [3]strategy.Tally
	for _, res := range out {
		for m := range res {
			tally[m].Add(search.Outcome(res[m]))
		}
	}
	return &WalkVsFloodResult{
		Nodes:        nodes,
		FloodSuccess: tally[flood].Success(), FloodMessages: tally[flood].MeanMessages(),
		WalkSuccess: tally[walk].Success(), WalkMessages: tally[walk].MeanMessages(),
		RingSuccess: tally[ring].Success(), RingMessages: tally[ring].MeanMessages(),
	}, nil
}
