// Package search implements the object-location mechanisms compared in the
// paper's Section V simulation: TTL-bounded flooding, expanding ring, and
// k-walker random walks over an overlay graph, against configurable replica
// placements (uniform with fixed replica counts, or the power-law placement
// observed in real systems).
//
// The central quantity is the Figure 8 one: the probability that a
// TTL-bounded search from a random origin locates any replica of a target
// object, as a function of TTL and of the placement model.
package search

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"querycentric/internal/overlay"
	"querycentric/internal/parallel"
	"querycentric/internal/rng"
	"querycentric/internal/strategy"
	"querycentric/internal/zipf"
)

// Placement assigns object replicas to nodes.
type Placement struct {
	Nodes   int
	Holders [][]int32 // Holders[obj] = nodes holding a replica of obj
}

// Objects returns the number of placed objects.
func (p *Placement) Objects() int { return len(p.Holders) }

// MeanReplicas returns the mean replica count per object.
func (p *Placement) MeanReplicas() float64 {
	if len(p.Holders) == 0 {
		return 0
	}
	total := 0
	for _, h := range p.Holders {
		total += len(h)
	}
	return float64(total) / float64(len(p.Holders))
}

// UniformPlacement places each of objects on exactly replicas distinct
// random nodes — the model prior P2P evaluations assumed (the paper varies
// replicas over 1, 4, 9, 19, 39 on 40,000 nodes).
func UniformPlacement(nodes, objects, replicas int, seed uint64) (*Placement, error) {
	if nodes <= 0 || objects <= 0 {
		return nil, fmt.Errorf("search: nodes and objects must be positive")
	}
	if replicas < 1 || replicas > nodes {
		return nil, fmt.Errorf("search: replicas %d out of range [1,%d]", replicas, nodes)
	}
	r := rng.NewNamed(seed, "search/uniform-placement")
	p := &Placement{Nodes: nodes, Holders: make([][]int32, objects)}
	for i := range p.Holders {
		idx := r.SampleInts(nodes, replicas)
		h := make([]int32, replicas)
		for j, v := range idx {
			h[j] = int32(v)
		}
		p.Holders[i] = h
	}
	return p, nil
}

// ZipfPlacement draws each object's replica count from the truncated power
// law P(k) ∝ k^-alpha, k ∈ [1, maxReplicas] — the distribution the paper
// measured in deployed systems — and places the replicas on distinct random
// nodes.
func ZipfPlacement(nodes, objects int, alpha float64, maxReplicas int, seed uint64) (*Placement, error) {
	if nodes <= 0 || objects <= 0 {
		return nil, fmt.Errorf("search: nodes and objects must be positive")
	}
	if maxReplicas <= 0 || maxReplicas > nodes {
		maxReplicas = nodes
	}
	dist, err := zipf.New(maxReplicas, alpha)
	if err != nil {
		return nil, err
	}
	r := rng.NewNamed(seed, "search/zipf-placement")
	p := &Placement{Nodes: nodes, Holders: make([][]int32, objects)}
	for i := range p.Holders {
		k := dist.Sample(r)
		idx := r.SampleInts(nodes, k)
		h := make([]int32, k)
		for j, v := range idx {
			h[j] = int32(v)
		}
		p.Holders[i] = h
	}
	return p, nil
}

// Result is the outcome of one search.
type Result struct {
	Found    bool
	Hops     int // hops at which the first replica was found (0 if origin holds it)
	Messages int // query transmissions
	Peers    int // peers that processed the query (excluding origin)
	Results  int // replica holders encountered (the hybrid rare-query rule counts these)
}

// Outcome is a result's contribution to a strategy.Tally (a function, not
// a method: Result is re-exported by the frozen root API).
func Outcome(r Result) strategy.Outcome {
	return strategy.Outcome{Found: r.Found, Hops: r.Hops, Messages: r.Messages}
}

// Engine holds the immutable state of one (graph, placement) pair. Its
// search methods delegate to a default Searcher, so a single-goroutine
// caller can use the Engine directly; parallel trial loops give each worker
// its own Searcher via NewSearcher.
type Engine struct {
	g     *overlay.Graph
	place *Placement
	def   *Searcher
}

// Searcher carries the per-goroutine scratch of one search worker: the
// flood kernel and the current object's holder set, both epoch-stamped so
// no per-search map or clearing pass is needed. A Searcher must not be
// shared between goroutines; the Engine it was built from is read-only and
// may be shared freely.
type Searcher struct {
	e       *Engine
	fr      *overlay.Frontier
	holders overlay.VertexSet
}

// NewEngine builds a search engine. The placement must cover the graph's
// node set.
func NewEngine(g *overlay.Graph, p *Placement) (*Engine, error) {
	if p.Nodes != g.N() {
		return nil, fmt.Errorf("search: placement for %d nodes, graph has %d", p.Nodes, g.N())
	}
	e := &Engine{g: g, place: p}
	e.def = e.NewSearcher()
	return e, nil
}

// NewSearcher returns a fresh search worker over this engine's graph and
// placement.
func (e *Engine) NewSearcher() *Searcher {
	return &Searcher{e: e, fr: overlay.NewFrontier(e.g), holders: overlay.NewVertexSet(e.g.N())}
}

// GraphN returns the number of nodes in the engine's graph.
func (e *Engine) GraphN() int { return e.g.N() }

// Flood on the Engine uses its default searcher (single-goroutine
// convenience).
func (e *Engine) Flood(origin, obj, ttl int) (Result, error) {
	return e.def.Flood(origin, obj, ttl)
}

// begin stamps obj's holders, replacing the per-search holder map of the
// naive implementation with an O(replicas) pass over a reused array.
func (s *Searcher) begin(obj int) {
	s.holders.Reset()
	for _, h := range s.e.place.Holders[obj] {
		s.holders.Add(h)
	}
}

// Flood performs a TTL-bounded flood from origin for object obj. The origin
// holding the object counts as an immediate hit at hop 0.
func (s *Searcher) Flood(origin, obj, ttl int) (Result, error) {
	if err := s.e.checkFlood(origin, obj, ttl); err != nil {
		return Result{}, err
	}
	s.begin(obj)
	if s.holders.Has(int32(origin)) {
		// A real servent searches its own library first and stops; the
		// immediate hit is reported and no flood goes out.
		return Result{Found: true, Results: 1}, nil
	}
	res := Result{}
	// A real flood keeps propagating after the first hit: cost keeps
	// accruing through the TTL but the first-hit hop is kept.
	s.fr.Start(origin, ttl, nil)
	for ring := s.fr.Next(); len(ring) > 0; ring = s.fr.Next() {
		res.Peers += len(ring)
		for _, v := range ring {
			if s.holders.Has(v) {
				res.Results++
				if !res.Found {
					res.Found, res.Hops = true, s.fr.Hop()
				}
			}
		}
	}
	res.Messages = s.fr.Sent()
	return res, nil
}

// ExpandingRing floods with TTL 1, 2, ... maxTTL until the object is found,
// accumulating cost across rings (the classic flooding-cost reduction).
func (s *Searcher) ExpandingRing(origin, obj, maxTTL int) (Result, error) {
	if maxTTL < 1 {
		return Result{}, fmt.Errorf("search: maxTTL must be at least 1, got %d", maxTTL)
	}
	total := Result{}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		res, err := s.Flood(origin, obj, ttl)
		if err != nil {
			return Result{}, err
		}
		total.Messages += res.Messages
		total.Peers += res.Peers
		if res.Found {
			total.Found = true
			total.Hops = res.Hops
			return total, nil
		}
	}
	return total, nil
}

// RandomWalk launches walkers concurrent random walks of at most maxSteps
// steps each (Lv et al. style). Walkers check every visited node for the
// object; success is any walker finding a replica.
func (s *Searcher) RandomWalk(origin, obj, walkers, maxSteps int, r *rng.Source) (Result, error) {
	e := s.e
	if err := e.check(origin, obj); err != nil {
		return Result{}, err
	}
	if walkers < 1 || maxSteps < 1 {
		return Result{}, fmt.Errorf("search: walkers and maxSteps must be positive")
	}
	s.begin(obj)
	if s.holders.Has(int32(origin)) {
		return Result{Found: true, Hops: 0}, nil
	}
	visited := s.fr.Seen()
	visited.Reset()
	visited.Add(int32(origin))
	res := Result{}
	for w := 0; w < walkers; w++ {
		cur := int32(origin)
		for step := 1; step <= maxSteps; step++ {
			nbs := e.g.Neighbors(int(cur))
			if len(nbs) == 0 {
				break
			}
			cur = nbs[r.Intn(len(nbs))]
			res.Messages++
			if visited.Add(cur) {
				res.Peers++
			}
			if s.holders.Has(cur) {
				if !res.Found || step < res.Hops {
					res.Found = true
					res.Hops = step
				}
				break
			}
		}
	}
	return res, nil
}

func (e *Engine) check(origin, obj int) error {
	if origin < 0 || origin >= e.g.N() {
		return fmt.Errorf("search: origin %d out of range", origin)
	}
	if obj < 0 || obj >= len(e.place.Holders) {
		return fmt.Errorf("search: object %d out of range", obj)
	}
	return nil
}

// checkFlood is Flood's argument check, which SuccessRateN repeats per
// trial so that both fail with the same error.
func (e *Engine) checkFlood(origin, obj, ttl int) error {
	if err := e.check(origin, obj); err != nil {
		return err
	}
	if ttl < 1 {
		return fmt.Errorf("search: TTL must be at least 1, got %d", ttl)
	}
	return nil
}

// SuccessRate measures the fraction of trials in which a flood at the given
// TTL finds the target, with targets chosen by pick (e.g. uniform over
// objects, or popularity-weighted) and origins uniform at random. It is
// SuccessRateN on one worker: trial i draws from the derived stream
// "trial/i", so the measured rate is identical at any worker count.
func (e *Engine) SuccessRate(ttl, trials int, pick func(r *rng.Source) int, seed uint64) (float64, error) {
	return e.SuccessRateN(ttl, trials, pick, seed, 1)
}

// waves recycles SuccessRateN's kernels across calls and engines: the
// curves of a sweep are engines over one graph, and a kernel over it is
// 40 bytes a vertex, plus its relaying core on a two-tier graph.
var waves sync.Pool

// SuccessRateN is SuccessRate fanned out over a bounded worker pool. Trial
// i draws its origin and then its target from the derived stream "trial/i";
// trials run WaveWidth at a time, one bit-parallel overlay.Wave pass per
// batch on a Wave borrowed from a pool, so a sweep of calls over one graph
// reuses warmed kernels. A trial succeeds exactly when Flood would
// report Found, and hits sum as integers, so the result is byte-identical
// for every workers value. An invalid target or TTL fails with the error
// Flood gives for the lowest failing trial. pick must be safe for
// concurrent calls (pure functions of r are).
func (e *Engine) SuccessRateN(ttl, trials int, pick func(r *rng.Source) int, seed uint64, workers int) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("search: trials must be positive")
	}
	base := rng.NewNamed(seed, "search/success")
	batches := (trials + overlay.WaveWidth - 1) / overlay.WaveWidth
	hits, err := parallel.Map(workers, batches,
		func(b int) (int, error) {
			w, ok := waves.Get().(*overlay.Wave)
			if !ok || w.Graph() != e.g {
				w = overlay.NewWave(e.g)
			}
			defer waves.Put(w)
			lo := b * overlay.WaveWidth
			hi := min(lo+overlay.WaveWidth, trials)
			var origins [overlay.WaveWidth]int32
			var objs [overlay.WaveWidth]int
			for i := lo; i < hi; i++ {
				r := base.Derive("trial/" + strconv.Itoa(i))
				origin := r.Intn(e.g.N())
				obj := pick(r)
				if err := e.checkFlood(origin, obj, ttl); err != nil {
					return 0, err
				}
				origins[i-lo], objs[i-lo] = int32(origin), obj
			}
			// Targets are marked only once the whole batch is valid, so a
			// failing batch returns its Wave to the pool empty.
			for j, obj := range objs[:hi-lo] {
				for _, h := range e.place.Holders[obj] {
					w.Target(h, j)
				}
			}
			return bits.OnesCount64(w.Run(origins[:hi-lo], ttl)), nil
		})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(trials), nil
}
