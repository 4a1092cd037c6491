// Package hybrid implements the hybrid search infrastructure of Loo et al.
// (IPTPS'04), the design the paper argues against: a query first floods the
// unstructured overlay with a small TTL; if it looks rare — fewer than a
// threshold of results (Loo et al. used 20) — it is reissued over the
// structured overlay (Chord here), where publishers have registered their
// objects.
//
// The paper's Section V/VII claim is reproduced by comparing this system
// against a pure DHT under the measured Zipf replica placement: because so
// few objects are replicated widely enough for the flood to succeed, the
// hybrid pays the flooding cost *and then* the DHT cost for nearly every
// query.
package hybrid

import (
	"fmt"

	"querycentric/internal/chord"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/strategy"
)

// Config tunes the hybrid policy.
type Config struct {
	// FloodTTL is the unstructured phase's TTL (hybrid systems keep it
	// small to identify rare queries quickly).
	FloodTTL int
	// RareThreshold: a flood returning fewer results than this classifies
	// the query as rare and triggers the structured lookup.
	RareThreshold int
}

// DefaultConfig uses TTL 3 and the Loo et al. 20-result rare rule.
func DefaultConfig() Config { return Config{FloodTTL: 3, RareThreshold: 20} }

// System couples an unstructured search engine with a Chord ring holding
// object publications.
type System struct {
	Engine *search.Engine
	Ring   *chord.Ring
	Store  *chord.Store

	keys        []uint64
	PublishHops int // total routing hops spent publishing all replicas
}

// New builds the hybrid system: a Chord ring congruent with the overlay's
// node set, with every object replica published under the object's key by
// its holder.
func New(g *overlay.Graph, p *search.Placement, seed uint64) (*System, error) {
	eng, err := search.NewEngine(g, p)
	if err != nil {
		return nil, err
	}
	ring, err := chord.New(g.N(), seed)
	if err != nil {
		return nil, err
	}
	s := &System{
		Engine: eng,
		Ring:   ring,
		Store:  chord.NewStore(ring),
		keys:   make([]uint64, p.Objects()),
	}
	for obj := 0; obj < p.Objects(); obj++ {
		s.keys[obj] = chord.HashKey(fmt.Sprintf("object-%d", obj))
		for _, holder := range p.Holders[obj] {
			hops, err := s.Store.Put(s.keys[obj], holder, ring.NodeByIndex(int(holder)))
			if err != nil {
				return nil, err
			}
			s.PublishHops += hops
		}
	}
	return s, nil
}

// Result reports one hybrid search.
type Result struct {
	Found         bool
	UsedDHT       bool
	FloodMessages int
	FloodResults  int
	DHTHops       int
}

// TotalCost is a single comparable cost figure: overlay messages plus DHT
// routing hops (each hop is one message).
func (r Result) TotalCost() int { return r.FloodMessages + r.DHTHops }

// Search runs the hybrid policy for object obj from origin.
func (s *System) Search(origin, obj int, cfg Config) (Result, error) {
	if cfg.FloodTTL < 1 {
		return Result{}, fmt.Errorf("hybrid: FloodTTL must be at least 1, got %d", cfg.FloodTTL)
	}
	if cfg.RareThreshold < 1 {
		return Result{}, fmt.Errorf("hybrid: RareThreshold must be at least 1, got %d", cfg.RareThreshold)
	}
	fl, err := s.Engine.Flood(origin, obj, cfg.FloodTTL)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Found:         fl.Found,
		FloodMessages: fl.Messages,
		FloodResults:  fl.Results,
	}
	if fl.Found && fl.Hops == 0 {
		return res, nil // the origin's own library satisfied the query
	}
	if fl.Results >= cfg.RareThreshold {
		return res, nil // popular enough: unstructured phase suffices
	}
	// Rare query: reissue over the DHT.
	res.UsedDHT = true
	vals, hops, err := s.Store.Get(s.keys[obj], s.Ring.NodeByIndex(origin))
	if err != nil {
		return Result{}, err
	}
	res.DHTHops = hops
	if len(vals) > 0 {
		res.Found = true
	}
	return res, nil
}

// DHTOnly performs the pure structured lookup for comparison.
func (s *System) DHTOnly(origin, obj int) (Result, error) {
	vals, hops, err := s.Store.Get(s.keys[obj], s.Ring.NodeByIndex(origin))
	if err != nil {
		return Result{}, err
	}
	return Result{Found: len(vals) > 0, UsedDHT: true, DHTHops: hops}, nil
}

// Comparison aggregates a head-to-head run of hybrid vs pure DHT.
type Comparison struct {
	HybridSuccess   float64
	DHTSuccess      float64
	HybridMeanCost  float64
	DHTMeanCost     float64
	DHTFallbackFrac float64 // fraction of hybrid queries that needed the DHT
}

// Compare runs trials random queries through both systems. Targets are
// drawn by pick (uniform over objects reproduces the paper's setting where
// query popularity is uncorrelated with replica counts).
func (s *System) Compare(cfg Config, trials int, pick func(r *rng.Source) int, seed uint64) (*Comparison, error) {
	if trials < 1 {
		return nil, fmt.Errorf("hybrid: trials must be positive")
	}
	r := rng.NewNamed(seed, "hybrid/compare")
	var hyb, dht strategy.Tally
	fallbacks := 0
	for i := 0; i < trials; i++ {
		origin := r.Intn(s.Engine.GraphN())
		obj := pick(r)
		h, err := s.Search(origin, obj, cfg)
		if err != nil {
			return nil, err
		}
		d, err := s.DHTOnly(origin, obj)
		if err != nil {
			return nil, err
		}
		hyb.Add(strategy.Outcome{Found: h.Found, Messages: h.TotalCost()})
		dht.Add(strategy.Outcome{Found: d.Found, Messages: d.TotalCost()})
		if h.UsedDHT {
			fallbacks++
		}
	}
	return &Comparison{
		HybridSuccess:   hyb.Success(),
		DHTSuccess:      dht.Success(),
		HybridMeanCost:  hyb.MeanMessages(),
		DHTMeanCost:     dht.MeanMessages(),
		DHTFallbackFrac: float64(fallbacks) / float64(trials),
	}, nil
}
