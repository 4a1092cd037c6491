package experiments

import (
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/shortcuts"
	"querycentric/internal/strategy"
	"querycentric/internal/zipf"
)

// ShortcutsResult is the interest-based-shortcuts extension: shortcut hit
// rates and costs while query interests are stable versus after the
// popular vocabulary shifts.
type ShortcutsResult struct {
	Nodes          int
	WarmupHits     float64
	SteadyHits     float64
	SteadyMessages float64
	ShiftedHits    float64
	FloodMessages  float64 // no-shortcut baseline mean cost
}

// ShortcutsExperiment runs interest-based shortcuts through the paper's
// two temporal regimes: the stable popular vocabulary of Figure 6 (where
// interest links keep paying off) and a vocabulary shift à la Figure 5's
// transients (where they stop helping until relearned). Query-centric
// structures must therefore track popularity over time — the thesis again.
func ShortcutsExperiment(e *Env) (*ShortcutsResult, error) {
	nodes := max(e.P.SimNodes/16, 400)
	const objects = 120
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), e.Seed+110)
	if err != nil {
		return nil, err
	}
	p, err := search.UniformPlacement(nodes, objects, max(nodes/60, 2), e.Seed+111)
	if err != nil {
		return nil, err
	}
	sys, err := shortcuts.New(g, p, shortcuts.DefaultConfig())
	if err != nil {
		return nil, err
	}
	qd, err := zipf.New(objects/2, 1.2)
	if err != nil {
		return nil, err
	}
	oldPick := func(r *rng.Source) int { return qd.Sample(r) - 1 }
	newPick := func(r *rng.Source) int { return objects/2 + qd.Sample(r) - 1 }

	queries := max(e.P.SimTrials*3, 600)
	res := &ShortcutsResult{Nodes: nodes}
	warm, err := sys.RunWorkload(queries, oldPick, e.Seed+112)
	if err != nil {
		return nil, err
	}
	res.WarmupHits = warm.ShortcutHits
	steady, err := sys.RunWorkload(queries/2, oldPick, e.Seed+113)
	if err != nil {
		return nil, err
	}
	res.SteadyHits = steady.ShortcutHits
	res.SteadyMessages = steady.MeanMessages
	shifted, err := sys.RunWorkload(queries/2, newPick, e.Seed+114)
	if err != nil {
		return nil, err
	}
	res.ShiftedHits = shifted.ShortcutHits

	// Flood-only baseline cost over the same steady workload.
	eng, err := search.NewEngine(g, p)
	if err != nil {
		return nil, err
	}
	r := rng.NewNamed(e.Seed, "experiments/shortcuts-baseline")
	var baseline strategy.Tally
	for i := 0; i < queries/2; i++ {
		fl, err := eng.Flood(r.Intn(nodes), oldPick(r), shortcuts.DefaultConfig().TTL)
		if err != nil {
			return nil, err
		}
		baseline.Add(search.Outcome(fl))
	}
	res.FloodMessages = baseline.MeanMessages()
	return res, nil
}
