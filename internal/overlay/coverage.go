package overlay

import (
	"fmt"

	"querycentric/internal/parallel"
	"querycentric/internal/rng"
)

// BFS computes the set of vertices a TTL-bounded flood from origin
// processes, excluding the origin itself, in ring order (see Frontier for
// the flood semantics). Sweeps should reuse one Coverage instead.
func (g *Graph) BFS(origin, ttl int) []int32 {
	return NewCoverage(g).Reached(origin, ttl)
}

// Coverage is a reusable TTL-bounded flood engine over one graph.
type Coverage struct {
	f   *Frontier
	buf []int32
}

// NewCoverage creates a reusable engine.
func NewCoverage(g *Graph) *Coverage { return &Coverage{f: NewFrontier(g)} }

// Reached returns the vertices processed by a TTL-bounded flood from
// origin (origin excluded). The returned slice is reused by the next call.
func (c *Coverage) Reached(origin, ttl int) []int32 {
	c.buf = c.buf[:0]
	c.f.Start(origin, ttl, nil)
	for ring := c.f.Next(); len(ring) > 0; ring = c.f.Next() {
		c.buf = append(c.buf, ring...)
	}
	return c.buf
}

// CoverageStats reports the mean fraction of the network processed by
// floods at each TTL in 1..maxTTL, averaged over sample random origins —
// the quantity behind the paper's "TTL 1..5 reach 0.05%...82.95%" table.
// It is CoverageStatsN on one worker.
func CoverageStats(g *Graph, maxTTL, samples int, seed uint64) ([]float64, error) {
	return CoverageStatsN(g, maxTTL, samples, seed, 1)
}

// CoverageStatsN is CoverageStats fanned out over a bounded worker pool.
// Sample i draws its origin from the derived stream "sample/i" and each
// worker floods through its own Frontier; per-sample fractions are
// summed in sample order, so the result is byte-identical for every
// workers value.
func CoverageStatsN(g *Graph, maxTTL, samples int, seed uint64, workers int) ([]float64, error) {
	if maxTTL < 1 {
		return nil, fmt.Errorf("overlay: maxTTL must be positive, got %d", maxTTL)
	}
	if samples < 1 {
		return nil, fmt.Errorf("overlay: samples must be positive, got %d", samples)
	}
	base := rng.NewNamed(seed, "overlay/coverage")
	perSample, err := parallel.MapWith(workers, samples,
		func() *Frontier { return NewFrontier(g) },
		func(f *Frontier, i int) ([]float64, error) {
			origin := base.Derive(fmt.Sprintf("sample/%d", i)).Intn(g.N())
			// Ring h of a flood is the same for every TTL >= h, so one
			// maxTTL flood yields every shallower TTL's reach as a prefix sum.
			fracs := make([]float64, maxTTL)
			reached := 0
			f.Start(origin, maxTTL, nil)
			for ttl := 1; ttl <= maxTTL; ttl++ {
				reached += len(f.Next())
				fracs[ttl-1] = float64(reached) / float64(g.N())
			}
			return fracs, nil
		})
	if err != nil {
		return nil, err
	}
	sums := make([]float64, maxTTL)
	for _, fracs := range perSample { // sample order: bit-identical floats
		for i, f := range fracs {
			sums[i] += f
		}
	}
	for i := range sums {
		sums[i] /= float64(samples)
	}
	return sums, nil
}

// MeanQueryHops estimates the mean number of hops a query takes to reach a
// processed peer under a TTL-bounded flood (the paper cites 2.47 hops mean
// for queries observed in 2006). It is MeanQueryHopsN on one worker.
func MeanQueryHops(g *Graph, ttl, samples int, seed uint64) (float64, error) {
	return MeanQueryHopsN(g, ttl, samples, seed, 1)
}

// MeanQueryHopsN is MeanQueryHops fanned out over a bounded worker pool.
// Sample i draws its origin from the derived stream "sample/i"; the
// per-sample (hops, peers) tallies are summed in sample order, so the
// result is byte-identical for every workers value.
func MeanQueryHopsN(g *Graph, ttl, samples int, seed uint64, workers int) (float64, error) {
	if ttl < 1 || samples < 1 {
		return 0, fmt.Errorf("overlay: invalid ttl %d or samples %d", ttl, samples)
	}
	base := rng.NewNamed(seed, "overlay/hops")
	type tally struct{ hops, peers float64 }
	perSample, err := parallel.MapWith(workers, samples,
		func() *Frontier { return NewFrontier(g) },
		func(f *Frontier, i int) (tally, error) {
			origin := base.Derive(fmt.Sprintf("sample/%d", i)).Intn(g.N())
			var t tally
			// Each ring weighs in at its hop count.
			f.Start(origin, ttl, nil)
			for ring := f.Next(); len(ring) > 0; ring = f.Next() {
				t.hops += float64(f.Hop() * len(ring))
				t.peers += float64(len(ring))
			}
			return t, nil
		})
	if err != nil {
		return 0, err
	}
	var totalHops, totalPeers float64
	for _, t := range perSample {
		totalHops += t.hops
		totalPeers += t.peers
	}
	if totalPeers == 0 {
		return 0, fmt.Errorf("overlay: floods reached no peers")
	}
	return totalHops / totalPeers, nil
}
