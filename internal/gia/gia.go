// Package gia implements the Gia search system (Chawathe et al.,
// SIGCOMM'03), the strongest unstructured baseline the paper discusses:
// heterogeneous node capacities, capacity-driven topology adaptation
// (high-capacity nodes take proportionally more neighbours), one-hop
// replication of content pointers (each node indexes its neighbours'
// content), and capacity-biased random walks.
//
// The paper's point against Gia: it was evaluated with uniform object
// distributions at replication ratios of 0.05–0.5%, but under the measured
// Zipf replica distribution, fewer than 1% of objects are replicated that
// widely, so Gia's measured success does not transfer to real workloads.
package gia

import (
	"fmt"
	"sort"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/strategy"
)

// Capacity levels follow the Gia paper's distribution: most nodes are 1x,
// with 10x/100x/1000x minorities.
var capacityLevels = []struct {
	cap  float64
	frac float64
}{
	{1, 0.20},
	{10, 0.45},
	{100, 0.30},
	{1000, 0.049},
	{10000, 0.001},
}

// Config seeds the Gia build.
type Config struct {
	Seed uint64
}

// The degree shape matches the published evaluation's.
const (
	// avgDegree is the mean node degree after adaptation.
	avgDegree = 8
	// maxDegreeFactor caps a node's degree at maxDegreeFactor*avgDegree.
	maxDegreeFactor = 16
)

// DefaultConfig seeds the build.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed}
}

// System is a built Gia network bound to a replica placement.
type System struct {
	Graph      *overlay.Graph
	Capacities []float64

	holderOf [][]int32         // object -> holders (from placement)
	holders  overlay.VertexSet // the searched object's holders
	visited  overlay.VertexSet
}

// New builds the capacity-adapted topology and the one-hop replication
// index for the given placement.
func New(n int, p *search.Placement, cfg Config) (*System, error) {
	if n <= 1 {
		return nil, fmt.Errorf("gia: need at least 2 nodes, got %d", n)
	}
	if p.Nodes != n {
		return nil, fmt.Errorf("gia: placement covers %d nodes, want %d", p.Nodes, n)
	}

	s := &System{holderOf: p.Holders}
	r := rng.NewNamed(cfg.Seed, "gia/capacities")
	s.Capacities = make([]float64, n)
	cum := make([]float64, len(capacityLevels))
	total := 0.0
	for i, l := range capacityLevels {
		total += l.frac
		cum[i] = total
	}
	for i := range s.Capacities {
		u := r.Float64() * total
		idx := sort.SearchFloat64s(cum, u)
		if idx >= len(capacityLevels) {
			idx = len(capacityLevels) - 1
		}
		s.Capacities[i] = capacityLevels[idx].cap
	}

	// Topology adaptation (simplified steady state): degree budget grows
	// with log10(capacity); edges pair stubs with a ring for connectivity.
	g, err := overlay.NewGraph(n)
	if err != nil {
		return nil, err
	}
	tr := rng.NewNamed(cfg.Seed, "gia/topology")
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			return nil, err
		}
	}
	budget := make([]int, n)
	maxDeg := avgDegree * maxDegreeFactor
	var totalLog float64
	logs := make([]float64, n)
	for i, c := range s.Capacities {
		l := 1.0
		for c >= 10 {
			l++
			c /= 10
		}
		logs[i] = l
		totalLog += l
	}
	extraEdges := n * (avgDegree - 2) / 2
	for i := range budget {
		budget[i] = int(float64(2*extraEdges) * logs[i] / totalLog)
		if budget[i] > maxDeg {
			budget[i] = maxDeg
		}
	}
	var stubs []int
	for i, b := range budget {
		for k := 0; k < b; k++ {
			stubs = append(stubs, i)
		}
	}
	tr.ShuffleInts(stubs)
	for attempts := 0; len(stubs) >= 2 && attempts < 20*len(stubs)+100; attempts++ {
		u, v := stubs[len(stubs)-1], stubs[len(stubs)-2]
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
			stubs = stubs[:len(stubs)-2]
			continue
		}
		tr.ShuffleInts(stubs)
	}
	s.Graph = g
	s.holders = overlay.NewVertexSet(n)
	s.visited = overlay.NewVertexSet(n)
	return s, nil
}

// hasOneHop reports whether node v or any of its neighbours holds the
// searched object — the one-hop replication check.
func (s *System) hasOneHop(v int32) bool {
	if s.holders.Has(v) {
		return true
	}
	for _, nb := range s.Graph.Neighbors(int(v)) {
		if s.holders.Has(nb) {
			return true
		}
	}
	return false
}

// Search runs one capacity-biased random walk with one-hop replication:
// at each step the walker moves to the highest-capacity unvisited
// neighbour (falling back to random when all are visited) and checks the
// one-hop index.
func (s *System) Search(origin, obj, maxSteps int, r *rng.Source) (search.Result, error) {
	if origin < 0 || origin >= s.Graph.N() {
		return search.Result{}, fmt.Errorf("gia: origin %d out of range", origin)
	}
	if obj < 0 || obj >= len(s.holderOf) {
		return search.Result{}, fmt.Errorf("gia: object %d out of range", obj)
	}
	if maxSteps < 1 {
		return search.Result{}, fmt.Errorf("gia: maxSteps must be positive")
	}
	s.holders.Reset()
	for _, h := range s.holderOf[obj] {
		s.holders.Add(h)
	}
	res := search.Result{}
	s.visited.Reset()
	cur := int32(origin)
	s.visited.Add(cur)
	if s.hasOneHop(cur) {
		res.Found = true
		res.Results = 1
		return res, nil
	}
	for step := 1; step <= maxSteps; step++ {
		nbs := s.Graph.Neighbors(int(cur))
		if len(nbs) == 0 {
			break
		}
		// Highest-capacity unvisited neighbour; random fallback.
		best := int32(-1)
		var bestCap float64
		for _, nb := range nbs {
			if s.visited.Has(nb) {
				continue
			}
			if c := s.Capacities[nb]; best < 0 || c > bestCap {
				best, bestCap = nb, c
			}
		}
		if best < 0 {
			best = nbs[r.Intn(len(nbs))]
		}
		cur = best
		res.Messages++
		if s.visited.Add(cur) {
			res.Peers++
		}
		if s.hasOneHop(cur) {
			res.Found = true
			res.Hops = step
			res.Results = 1
			return res, nil
		}
	}
	return res, nil
}

// SuccessRate measures Gia's success over random (origin, object) trials
// with a per-query step budget. Trials run in sequence on one stream, so
// the Gia comparison's numbers are a pure function of the seed.
func (s *System) SuccessRate(maxSteps, trials int, pick func(r *rng.Source) int, seed uint64) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("gia: trials must be positive")
	}
	r := rng.NewNamed(seed, "gia/success")
	var t strategy.Tally
	for i := 0; i < trials; i++ {
		res, err := s.Search(r.Intn(s.Graph.N()), pick(r), maxSteps, r)
		if err != nil {
			return 0, err
		}
		t.Add(search.Outcome(res))
	}
	return t.Success(), nil
}
