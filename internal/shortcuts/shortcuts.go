// Package shortcuts implements interest-based shortcuts (Sripanidkulchai,
// Maggs & Zhang, INFOCOM 2003): a query-centric adaptation at the topology
// level. Each peer remembers the peers that answered its past queries and
// tries those shortcuts first; only on a miss does it fall back to
// flooding. Because interests are what queries express, shortcut quality
// tracks the *query* distribution automatically — unlike the annotation-
// driven structures the paper indicts.
//
// The experiment built on this package shows shortcuts sharply cut
// flooding cost while query interests are stable (the paper's Figure 6
// regime) and decay when the popular vocabulary shifts (the Figure 5
// transients), reinforcing the need for temporal awareness.
package shortcuts

import (
	"fmt"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/strategy"
)

// Config tunes the shortcut lists.
type Config struct {
	// ListSize caps each peer's shortcut list (the published system used
	// small lists, ~10).
	ListSize int
	// TTL bounds the fallback flood.
	TTL int
}

// DefaultConfig matches the published setup.
func DefaultConfig() Config { return Config{ListSize: 10, TTL: 3} }

// System layers shortcut lists over a search engine.
type System struct {
	cfg Config
	eng *search.Engine
	g   *overlay.Graph
	p   *search.Placement
	// lists[v] = shortcut peers, most recently useful first.
	lists [][]int32
}

// New builds a shortcut system over graph and placement.
func New(g *overlay.Graph, p *search.Placement, cfg Config) (*System, error) {
	if cfg.ListSize < 1 {
		return nil, fmt.Errorf("shortcuts: ListSize must be at least 1, got %d", cfg.ListSize)
	}
	if cfg.TTL < 1 {
		return nil, fmt.Errorf("shortcuts: TTL must be at least 1, got %d", cfg.TTL)
	}
	eng, err := search.NewEngine(g, p)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, eng: eng, g: g, p: p, lists: make([][]int32, g.N())}, nil
}

// Result extends the search result with how the object was located.
type Result struct {
	search.Result
	ViaShortcut bool
}

// Search tries the origin's shortcuts (one message each), then falls back
// to a TTL-bounded flood. Successful floods install the first responding
// holder as a shortcut (move-to-front, capped list).
func (s *System) Search(origin, obj int) (Result, error) {
	if origin < 0 || origin >= s.g.N() {
		return Result{}, fmt.Errorf("shortcuts: origin %d out of range", origin)
	}
	if obj < 0 || obj >= s.p.Objects() {
		return Result{}, fmt.Errorf("shortcuts: object %d out of range", obj)
	}
	res := Result{}
	holders := make(map[int32]struct{}, len(s.p.Holders[obj]))
	for _, h := range s.p.Holders[obj] {
		holders[h] = struct{}{}
	}
	if _, ok := holders[int32(origin)]; ok {
		res.Found = true
		res.Results = 1
		return res, nil
	}
	// Shortcut probes: one unicast message each.
	for i, sc := range s.lists[origin] {
		res.Messages++
		if _, ok := holders[sc]; ok {
			res.Found = true
			res.Results = 1
			res.ViaShortcut = true
			res.Hops = 1
			s.promote(origin, i)
			return res, nil
		}
	}
	// Fallback flood.
	fl, err := s.eng.Flood(origin, obj, s.cfg.TTL)
	if err != nil {
		return Result{}, err
	}
	res.Found = fl.Found
	res.Hops = fl.Hops
	res.Results = fl.Results
	res.Messages += fl.Messages
	res.Peers = fl.Peers
	if fl.Found {
		// Install the nearest holder as a shortcut. Flood does not report
		// which holder answered first; any holder is a valid interest link.
		s.install(origin, s.p.Holders[obj][0])
	}
	return res, nil
}

// promote moves list entry i to the front (most recently useful).
func (s *System) promote(v, i int) {
	l := s.lists[v]
	sc := l[i]
	copy(l[1:i+1], l[:i])
	l[0] = sc
}

// install prepends a shortcut, deduplicating and trimming to the cap.
func (s *System) install(v int, sc int32) {
	l := s.lists[v]
	for i, existing := range l {
		if existing == sc {
			s.promote(v, i)
			return
		}
	}
	l = append([]int32{sc}, l...)
	if len(l) > s.cfg.ListSize {
		l = l[:s.cfg.ListSize]
	}
	s.lists[v] = l
}

// RunWorkload issues queries that follow the unified workload derivation
// (see strategy.WorkloadStream), so a shortcut run and any other strategy
// at the same seed observe the identical (origin, object) sequence. Shortcut lists warm up and adapt during the
// run and persist across calls.
func (s *System) RunWorkload(queries int, pick func(r *rng.Source) int, seed uint64) (*strategy.Stats, error) {
	if queries < 1 {
		return nil, fmt.Errorf("shortcuts: queries must be positive")
	}
	base := strategy.WorkloadStream(seed)
	var t strategy.Tally
	scHits := 0
	for i := 0; i < queries; i++ {
		r := strategy.QueryStream(base, i)
		res, err := s.Search(r.Intn(s.g.N()), pick(r))
		if err != nil {
			return nil, err
		}
		t.Add(search.Outcome(res.Result))
		if res.ViaShortcut {
			scHits++
		}
	}
	st := t.Stats()
	if t.Hits > 0 {
		st.ShortcutHits = float64(scHits) / float64(t.Hits)
	}
	return st, nil
}
