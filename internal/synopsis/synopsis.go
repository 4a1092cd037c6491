// Package synopsis implements the authors' proposed direction (their
// INFOCOM'08 follow-on, reference [9] of the paper): each peer advertises a
// compact Bloom-filter synopsis of (a bounded subset of) its content terms
// to its neighbours, and queries are forwarded only toward neighbours whose
// synopsis claims every query term.
//
// The query-centric idea is the *adaptive* synopsis: because the popular
// query vocabulary is stable but mismatched with the popular file
// vocabulary, a peer with a bounded advertisement budget should spend it on
// the terms queries actually use. SetPopular feeds the currently popular
// query terms (from analysis.Intervals); with Adaptive enabled, peers
// re-prioritize their advertised terms so content matching popular queries
// stays visible. The ablation (static vs adaptive) reproduces the paper's
// §VII claim that synopses "adapted dynamically to take into account
// transiently popular terms ... improved overall search success rates".
package synopsis

import (
	"fmt"
	"sort"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
)

// Config tunes the synopsis network.
type Config struct {
	Seed uint64
	// SynopsisTerms caps how many terms a peer may advertise. Content
	// beyond the budget is invisible to synopsis routing (that's the
	// point of the adaptive policy).
	SynopsisTerms int
	// FPRate is the Bloom filter false-positive target.
	FPRate float64
	// Adaptive selects the query-centric advertisement policy.
	Adaptive bool
	// Fallback is how many random additional neighbours a node forwards
	// to when no neighbour synopsis matches (prevents dead ends).
	Fallback int
}

// DefaultConfig returns a reasonable configuration.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, SynopsisTerms: 64, FPRate: 0.02, Adaptive: true, Fallback: 1}
}

// Network is a synopsis-routed overlay bound to per-node content term sets.
type Network struct {
	cfg     Config
	g       *overlay.Graph
	content []map[string]struct{} // full per-node term sets (ground truth)
	ordered [][]string            // deterministic ordering of each node's terms
	syn     []*filter             // advertised synopses
	popular map[string]struct{}

	seen overlay.VertexSet
	r    *rng.Source
}

// New builds the network. content[v] is node v's full term multiset
// (duplicates ignored).
func New(g *overlay.Graph, content [][]string, cfg Config) (*Network, error) {
	if g.N() != len(content) {
		return nil, fmt.Errorf("synopsis: %d content sets for %d nodes", len(content), g.N())
	}
	if cfg.SynopsisTerms < 1 {
		return nil, fmt.Errorf("synopsis: SynopsisTerms must be positive, got %d", cfg.SynopsisTerms)
	}
	if cfg.FPRate <= 0 || cfg.FPRate >= 1 {
		return nil, fmt.Errorf("synopsis: FPRate must be in (0,1), got %g", cfg.FPRate)
	}
	if cfg.Fallback < 0 {
		return nil, fmt.Errorf("synopsis: Fallback must be non-negative, got %d", cfg.Fallback)
	}
	n := &Network{
		cfg:     cfg,
		g:       g,
		content: make([]map[string]struct{}, len(content)),
		ordered: make([][]string, len(content)),
		syn:     make([]*filter, len(content)),
		popular: map[string]struct{}{},
		seen:    overlay.NewVertexSet(g.N()),
		r:       rng.NewNamed(cfg.Seed, "synopsis/fallback"),
	}
	for v, ts := range content {
		set := make(map[string]struct{}, len(ts))
		for _, t := range ts {
			set[t] = struct{}{}
		}
		n.content[v] = set
		ord := make([]string, 0, len(set))
		for t := range set {
			ord = append(ord, t)
		}
		sort.Strings(ord)
		n.ordered[v] = ord
	}
	if err := n.rebuild(); err != nil {
		return nil, err
	}
	return n, nil
}

// SetPopular updates the currently popular query-term set and, when the
// adaptive policy is enabled, rebuilds every peer's synopsis to prioritize
// those terms. Static networks record the set but never re-advertise.
func (n *Network) SetPopular(terms []string) error {
	n.popular = make(map[string]struct{}, len(terms))
	for _, t := range terms {
		n.popular[t] = struct{}{}
	}
	if !n.cfg.Adaptive {
		return nil
	}
	return n.rebuild()
}

// rebuild re-advertises every node's synopsis under the current policy.
func (n *Network) rebuild() error {
	for v := range n.syn {
		adv := n.advertised(v)
		f, err := newFilter(max(len(adv), 8), n.cfg.FPRate)
		if err != nil {
			return err
		}
		for _, t := range adv {
			f.add(t)
		}
		n.syn[v] = f
	}
	return nil
}

// advertised selects which of node v's terms fit the advertisement budget.
// Static policy: the first SynopsisTerms in deterministic order. Adaptive
// policy: terms that are currently popular queries first, then the rest.
func (n *Network) advertised(v int) []string {
	ord := n.ordered[v]
	if len(ord) <= n.cfg.SynopsisTerms {
		return ord
	}
	if !n.cfg.Adaptive || len(n.popular) == 0 {
		return ord[:n.cfg.SynopsisTerms]
	}
	out := make([]string, 0, n.cfg.SynopsisTerms)
	for _, t := range ord {
		if _, hot := n.popular[t]; hot {
			out = append(out, t)
			if len(out) == n.cfg.SynopsisTerms {
				return out
			}
		}
	}
	for _, t := range ord {
		if _, hot := n.popular[t]; !hot {
			out = append(out, t)
			if len(out) == n.cfg.SynopsisTerms {
				return out
			}
		}
	}
	return out
}

// claims reports whether node v's synopsis claims all query terms.
func (n *Network) claims(v int32, qterms []string) bool {
	f := n.syn[v]
	for _, t := range qterms {
		if !f.contains(t) {
			return false
		}
	}
	return true
}

// has reports whether node v's full content matches all query terms.
func (n *Network) has(v int32, qterms []string) bool {
	set := n.content[v]
	for _, t := range qterms {
		if _, ok := set[t]; !ok {
			return false
		}
	}
	return true
}

// Search routes a conjunctive term query from origin with the given TTL.
// Forwarding is synopsis-directed: a node sends the query to neighbours
// whose synopsis claims every term, plus up to Fallback random neighbours.
func (n *Network) Search(origin int, qterms []string, ttl int) (search.Result, error) {
	if origin < 0 || origin >= n.g.N() {
		return search.Result{}, fmt.Errorf("synopsis: origin %d out of range", origin)
	}
	if len(qterms) == 0 {
		return search.Result{}, fmt.Errorf("synopsis: empty query")
	}
	if ttl < 1 {
		return search.Result{}, fmt.Errorf("synopsis: TTL must be at least 1, got %d", ttl)
	}
	res := search.Result{}
	if n.has(int32(origin), qterms) {
		res.Found = true
		res.Results = 1
		return res, nil
	}
	n.seen.Reset()
	n.seen.Add(int32(origin))
	frontier := n.forwardSet(int32(origin), qterms)
	res.Messages += len(frontier)
	var next []int32
	for hop := 1; hop <= ttl && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			if !n.seen.Add(v) {
				continue
			}
			res.Peers++
			if n.has(v, qterms) {
				res.Results++
				if !res.Found {
					res.Found = true
					res.Hops = hop
				}
			}
			if hop == ttl {
				continue
			}
			fwd := n.forwardSet(v, qterms)
			for _, w := range fwd {
				if !n.seen.Has(w) {
					next = append(next, w)
					res.Messages++
				}
			}
		}
		frontier, next = next, frontier
	}
	return res, nil
}

// forwardSet selects the neighbours of v to forward to.
func (n *Network) forwardSet(v int32, qterms []string) []int32 {
	nbs := n.g.Neighbors(int(v))
	out := make([]int32, 0, 4)
	for _, nb := range nbs {
		if n.claims(nb, qterms) {
			out = append(out, nb)
		}
	}
	// Random fallback keeps the query alive past synopsis blind spots.
	for k := 0; k < n.cfg.Fallback && len(nbs) > 0; k++ {
		out = append(out, nbs[n.r.Intn(len(nbs))])
	}
	return out
}
