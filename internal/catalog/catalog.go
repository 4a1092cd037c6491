// Package catalog builds the synthetic Gnutella content population: a
// global set of objects, a power-law replica count per object, and per-peer
// shared libraries of file names.
//
// This is the substitute for the paper's Gnutella file crawls (12.1M
// placements of 8.1M unique objects over 37,572 peers, April 2007). The
// replica-count distribution is a discrete power law P(k) ∝ k^-α calibrated
// so that the paper's headline marginals hold at any scale: ~70% of objects
// on a single peer, >98% of objects on at most 37 peers, mean replication
// ≈1.5–2. Replica placements may carry name variants (case, punctuation,
// featuring credits, misspellings) and a configurable set of non-specific
// names ("01 Track.wma") recurs on a large fraction of peers, as observed.
package catalog

import (
	"fmt"
	"math"

	"querycentric/internal/namegen"
	"querycentric/internal/parallel"
	"querycentric/internal/rng"
	"querycentric/internal/vocab"
	"querycentric/internal/zipf"
)

// Config sizes and shapes a content population.
type Config struct {
	Seed          uint64
	Peers         int     // number of peers sharing content
	UniqueObjects int     // number of distinct underlying objects
	ReplicaAlpha  float64 // exponent of P(replicas = k) ∝ k^-α; paper shape ⇒ ~2.45

	// VariantProb is the chance a replica beyond the first is shared under
	// a perturbed name rather than the canonical one.
	VariantProb float64
	// NonSpecificPeerFrac is the fraction of peers that additionally share
	// each built-in non-specific name (the paper saw "01 Track.wma" on
	// 2,681 of 37,572 peers ≈ 7%). Zero disables.
	NonSpecificPeerFrac float64
}

// maxReplicas caps per-object replicas; the cap is min(Peers, maxReplicas).
const maxReplicas = 5000

// DefaultConfig returns the scaled-down calibration of the paper's
// April 2007 crawl: 1,000 peers, 81,000 unique objects.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                seed,
		Peers:               1000,
		UniqueObjects:       81000,
		ReplicaAlpha:        2.45,
		VariantProb:         0.08,
		NonSpecificPeerFrac: 0.05,
	}
}

// Object is one distinct underlying object.
type Object struct {
	ID       int
	Name     string // canonical shared name
	Replicas int    // number of peers assigned a copy
}

// Catalog is a fully built content population.
type Catalog struct {
	Config    Config
	Objects   []Object
	Libraries [][]string // Libraries[p] = file names shared by peer p

	// TotalPlacements counts every (peer, name) pair including
	// non-specific names.
	TotalPlacements int
}

// Sink receives the population as Stream generates it. Object (optional)
// is called once per distinct object in ID order; Place (required) once
// per (peer, shared name) placement in emission order — for a given peer
// that order is exactly the peer's library order. A non-nil error from
// Place aborts the stream.
type Sink struct {
	Object func(id int, name string, replicas int)
	Place  func(peer int, name string) error
}

// BuildWorkers constructs the population for cfg, fanning canonical name
// generation out over up to `workers` goroutines (≤ 0 means GOMAXPROCS).
// Identical configs build identical catalogs at every worker count. It
// materializes the population Stream emits, so the two are draw-for-draw
// identical by construction.
func BuildWorkers(cfg Config, workers int) (*Catalog, error) {
	c := &Catalog{Config: cfg}
	if cfg.UniqueObjects > 0 {
		c.Objects = make([]Object, cfg.UniqueObjects)
	}
	if cfg.Peers > 0 {
		c.Libraries = make([][]string, cfg.Peers)
	}
	var err error
	c.TotalPlacements, err = Stream(cfg, workers, Sink{
		Object: func(id int, name string, replicas int) {
			c.Objects[id] = Object{ID: id, Name: name, Replicas: replicas}
		},
		Place: func(peer int, name string) error {
			c.Libraries[peer] = append(c.Libraries[peer], name)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Stream generates the population of cfg and hands it to sink without
// retaining it: peak memory is one chunk of canonical names plus the
// generator state, independent of UniqueObjects. It returns the total
// placement count. Only canonical name generation is parallelized —
// namegen.Canonical is a pure function of (seed, objID), drawn on its own
// derived stream — so the emission is byte-identical for every worker
// count. Replica counts, placements and name variants stay on shared
// sequential named streams; reordering those draws would change the
// population.
func Stream(cfg Config, workers int, sink Sink) (int, error) {
	if sink.Place == nil {
		return 0, fmt.Errorf("catalog: Stream needs a Place sink")
	}
	if cfg.Peers <= 0 {
		return 0, fmt.Errorf("catalog: Peers must be positive, got %d", cfg.Peers)
	}
	if cfg.UniqueObjects <= 0 {
		return 0, fmt.Errorf("catalog: UniqueObjects must be positive, got %d", cfg.UniqueObjects)
	}
	if cfg.ReplicaAlpha <= 1 {
		return 0, fmt.Errorf("catalog: ReplicaAlpha must exceed 1, got %g", cfg.ReplicaAlpha)
	}
	if cfg.VariantProb < 0 || cfg.VariantProb > 1 {
		return 0, fmt.Errorf("catalog: VariantProb out of range: %g", cfg.VariantProb)
	}
	if cfg.NonSpecificPeerFrac < 0 || cfg.NonSpecificPeerFrac > 1 {
		return 0, fmt.Errorf("catalog: NonSpecificPeerFrac out of range: %g", cfg.NonSpecificPeerFrac)
	}
	maxRep := min(cfg.Peers, maxReplicas)

	voc, err := vocab.New(sizedVocab(cfg.Seed, cfg.UniqueObjects))
	if err != nil {
		return 0, err
	}
	gen, err := namegen.New(voc, cfg.Seed)
	if err != nil {
		return 0, err
	}

	// Replica counts: P(k) ∝ k^-α over k in 1..maxRep. A zipf.Dist over
	// "ranks" 1..maxRep with exponent α is exactly this distribution.
	repDist, err := zipf.New(maxRep, cfg.ReplicaAlpha)
	if err != nil {
		return 0, err
	}

	repRNG := rng.NewNamed(cfg.Seed, "catalog/replicas")
	placeRNG := rng.NewNamed(cfg.Seed, "catalog/placement")
	varRNG := rng.NewNamed(cfg.Seed, "catalog/variants")

	// Peer propensity weights: real libraries are heterogeneous — a few
	// peers share a huge number of files. Draw lognormal-ish weights.
	weights := make([]float64, cfg.Peers)
	cum := make([]float64, cfg.Peers)
	wRNG := rng.NewNamed(cfg.Seed, "catalog/peer-weights")
	total := 0.0
	for i := range weights {
		w := math.Exp(wRNG.NormFloat64() * 1.2)
		weights[i] = w
		total += w
		cum[i] = total
	}

	peers := newPeerSampler(cum)

	// Canonical names are generated a bounded chunk at a time: each comes
	// from a per-object derived stream, so inner sub-chunks are independent
	// and safe to fan out. At about 0.5 µs and one allocation a name,
	// generation is still a third of the catalog layer's CPU at 162,000
	// objects, beside peer sampling and the sink; chunking keeps only
	// nameChunk names resident, which is what lets the sharded snapshot
	// builder stream arbitrarily large populations.
	const (
		nameChunk = 1 << 16
		subChunk  = 1024
	)
	names := make([]string, 0, min(nameChunk, cfg.UniqueObjects))
	placed := 0
	for base := 0; base < cfg.UniqueObjects; base += nameChunk {
		hi := min(base+nameChunk, cfg.UniqueObjects)
		names = names[:hi-base]
		nSub := (len(names) + subChunk - 1) / subChunk
		if err := parallel.ForEach(workers, nSub, func(ci int) error {
			lo := ci * subChunk
			end := min(lo+subChunk, len(names))
			for i := lo; i < end; i++ {
				names[i] = gen.Canonical(base + i)
			}
			return nil
		}); err != nil {
			return 0, err
		}

		// Placement draws are strictly sequential across chunks: one shared
		// stream each for replica counts, peer choices and name variants.
		for i := base; i < hi; i++ {
			k := repDist.Sample(repRNG)
			name := names[i-base]
			if sink.Object != nil {
				sink.Object(i, name, k)
			}
			for _, p := range peers.sample(placeRNG, k) {
				shared := name
				// The first replica keeps the canonical name; later replicas
				// may be perturbed copies.
				if cfg.VariantProb > 0 && varRNG.Bool(cfg.VariantProb) {
					shared = gen.Variant(name, varRNG)
				}
				if err := sink.Place(p, shared); err != nil {
					return 0, err
				}
				placed++
			}
		}
	}

	// Non-specific names recur independently across peers.
	if cfg.NonSpecificPeerFrac > 0 {
		nsRNG := rng.NewNamed(cfg.Seed, "catalog/nonspecific")
		for _, name := range namegen.NonSpecificNames {
			for p := 0; p < cfg.Peers; p++ {
				if nsRNG.Bool(cfg.NonSpecificPeerFrac) {
					if err := sink.Place(p, name); err != nil {
						return 0, err
					}
					placed++
				}
			}
		}
	}
	return placed, nil
}

// sizedVocab scales the vocabulary with the object population so that name
// collisions stay rare.
func sizedVocab(seed uint64, uniqueObjects int) vocab.Config {
	a := uniqueObjects / 20
	if a < 200 {
		a = 200
	}
	tt := uniqueObjects / 3
	if tt < 1000 {
		tt = 1000
	}
	al := uniqueObjects / 15
	if al < 100 {
		al = 100
	}
	return vocab.Config{Seed: seed, Artists: a, Titles: tt, Albums: al, Genres: 300, Extra: 500}
}

// peerSampler draws each object's replica peers. It dedupes through one
// stamp slice reused across objects (stamp[p] == gen marks p as drawn for
// the current object) and reuses its output slice, so sampling an object
// allocates nothing.
type peerSampler struct {
	cum   []float64 // cumulative peer weights
	stamp []uint32
	gen   uint32
	out   []int
}

func newPeerSampler(cum []float64) *peerSampler {
	return &peerSampler{cum: cum, stamp: make([]uint32, len(cum))}
}

// sample draws k distinct peer indices with probability proportional to
// the weight increments of cum. The result is valid until the next call.
func (s *peerSampler) sample(r *rng.Source, k int) []int {
	n := len(s.cum)
	out := s.out[:0]
	if k >= n {
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		s.out = out
		return out
	}
	if s.gen++; s.gen == 0 { // wrapped: no stamp may read as current
		clear(s.stamp)
		s.gen = 1
	}
	draw := func(p int) {
		if s.stamp[p] != s.gen {
			s.stamp[p] = s.gen
			out = append(out, p)
		}
	}
	// Rejection sampling; with k << n this terminates quickly. Guard with a
	// fallback to uniform distinct sampling if rejections pile up.
	for attempts := 0; len(out) < k && attempts < 50*k+100; attempts++ {
		draw(r.WeightedIndex(s.cum))
	}
	for len(out) < k {
		draw(r.Intn(n))
	}
	s.out = out
	return out
}
