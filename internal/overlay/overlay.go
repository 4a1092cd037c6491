// Package overlay provides the overlay-graph substrate for the search
// simulations: Gnutella-like two-tier topologies, Erdős–Rényi and
// Barabási–Albert random graphs, random-regular graphs, and TTL-bounded
// coverage computations (the basis of the paper's Section V simulation of a
// 40,000-node network and the TTL/coverage table).
package overlay

import (
	"fmt"
	"sort"

	"querycentric/internal/rng"
)

// Graph is an undirected overlay graph over vertices 0..N-1.
type Graph struct {
	n     int
	adj   [][]int32
	ultra []bool // nil for flat topologies
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("overlay: vertex count must be positive, got %d", n)
	}
	return &Graph{n: n, adj: make([][]int32, n)}, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicates are
// rejected.
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("overlay: self loop at %d", u)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("overlay: edge (%d,%d) out of range", u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("overlay: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	return nil
}

// HasEdge reports whether (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.adj[u]
	for _, w := range a {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Neighbors returns v's adjacency list (not a copy; callers must not
// mutate).
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Ultra reports whether v is an ultrapeer (always true in flat graphs,
// where every node relays).
func (g *Graph) Ultra(v int) bool {
	if g.ultra == nil {
		return true
	}
	return g.ultra[v]
}

// TwoTier reports whether the graph carries ultrapeer/leaf roles.
func (g *Graph) TwoTier() bool { return g.ultra != nil }

// Edges counts undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Degrees returns the sorted degree sequence.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	for i := range out {
		out[i] = len(g.adj[i])
	}
	sort.Ints(out)
	return out
}

// compact packs every adjacency list into one backing array, in vertex
// order, which drops the slack growth left in each list. Each list is
// capped at its length, so a later AddEdge reallocates only the list it
// grows and never writes over a neighbour's. Generators end with it.
func (g *Graph) compact() {
	flat := make([]int32, 0, 2*g.Edges())
	for v, a := range g.adj {
		lo := len(flat)
		flat = append(flat, a...)
		g.adj[v] = flat[lo:len(flat):len(flat)]
	}
}

// NewErdosRenyi builds a connected Erdős–Rényi-style graph with the given
// average degree: a Hamiltonian ring for connectivity plus random chords.
func NewErdosRenyi(n int, avgDegree float64, seed uint64) (*Graph, error) {
	if avgDegree < 2 {
		return nil, fmt.Errorf("overlay: average degree must be at least 2, got %g", avgDegree)
	}
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		return g, nil
	}
	r := rng.NewNamed(seed, "overlay/er")
	for i := 0; i < n; i++ {
		if !g.HasEdge(i, (i+1)%n) {
			if err := g.AddEdge(i, (i+1)%n); err != nil {
				return nil, err
			}
		}
	}
	extra := int(float64(n)*avgDegree/2) - n
	for added := 0; added < extra; {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
		added++
	}
	g.compact()
	return g, nil
}

// NewRandomRegular builds an approximately d-regular connected graph via
// the pairing model with rejection, falling back to near-regular if a
// perfect matching stalls.
func NewRandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d < 2 || d >= n {
		return nil, fmt.Errorf("overlay: degree %d invalid for %d vertices", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("overlay: n*d must be even (n=%d, d=%d)", n, d)
	}
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	r := rng.NewNamed(seed, "overlay/regular")
	// Ring first (consumes 2 of each vertex's degree budget, keeps the
	// graph connected), then pair remaining stubs randomly.
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			return nil, err
		}
	}
	stubs := make([]int, 0, n*(d-2))
	for i := 0; i < n; i++ {
		for k := 0; k < d-2; k++ {
			stubs = append(stubs, i)
		}
	}
	r.ShuffleInts(stubs)
	for attempts := 0; len(stubs) >= 2 && attempts < 20*n*d; attempts++ {
		u := stubs[len(stubs)-1]
		v := stubs[len(stubs)-2]
		if u != v && !g.HasEdge(u, v) {
			g.adj[u] = append(g.adj[u], int32(v))
			g.adj[v] = append(g.adj[v], int32(u))
			stubs = stubs[:len(stubs)-2]
			continue
		}
		// Reshuffle the remaining stubs and retry.
		r.ShuffleInts(stubs)
	}
	g.compact()
	return g, nil
}

// NewBarabasiAlbert builds a preferential-attachment graph: each new vertex
// attaches m edges to existing vertices with probability proportional to
// degree, producing the power-law degree distribution observed in real
// unstructured overlays.
func NewBarabasiAlbert(n, m int, seed uint64) (*Graph, error) {
	if m < 1 || m >= n {
		return nil, fmt.Errorf("overlay: attachment count %d invalid for %d vertices", m, n)
	}
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	r := rng.NewNamed(seed, "overlay/ba")
	// Seed clique of m+1 vertices.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			if err := g.AddEdge(i, j); err != nil {
				return nil, err
			}
		}
	}
	// Repeated-vertex list: sampling uniformly from it is sampling
	// proportionally to degree.
	var targets []int32
	for i := 0; i <= m; i++ {
		for range g.adj[i] {
			targets = append(targets, int32(i))
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := map[int32]bool{}
		for len(chosen) < m {
			t := targets[r.Intn(len(targets))]
			if int(t) != v {
				chosen[t] = true
			}
		}
		for t := range chosen {
			if err := g.AddEdge(v, int(t)); err != nil {
				return nil, err
			}
			targets = append(targets, t, int32(v))
		}
	}
	g.compact()
	return g, nil
}

// GnutellaConfig shapes the two-tier topology used for the paper's
// 40,000-node simulation.
type GnutellaConfig struct {
	UltraFrac  float64 // fraction of ultrapeers (≈0.15 in the modern network)
	UltraDeg   int     // ultrapeer-to-ultrapeer degree
	LeafUltras int     // ultrapeers per leaf
}

// DefaultGnutellaConfig matches the measured modern-Gnutella shape; with
// these parameters a TTL-2..5 flood covers the fractions the paper reports
// (≈0.05%, ~0.3%, ~2.6%, 26%, 83% at 40,000 nodes).
func DefaultGnutellaConfig() GnutellaConfig {
	return GnutellaConfig{UltraFrac: 0.15, UltraDeg: 10, LeafUltras: 3}
}

// NewGnutella builds a two-tier ultrapeer/leaf overlay. Only ultrapeers
// relay queries (Graph.Ultra reports the role); leaves attach to LeafUltras
// ultrapeers.
func NewGnutella(n int, cfg GnutellaConfig, seed uint64) (*Graph, error) {
	if cfg.UltraFrac <= 0 || cfg.UltraFrac > 1 {
		return nil, fmt.Errorf("overlay: UltraFrac out of range: %g", cfg.UltraFrac)
	}
	if cfg.UltraDeg < 2 || cfg.LeafUltras < 1 {
		return nil, fmt.Errorf("overlay: degrees invalid: %+v", cfg)
	}
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	nUltra := int(float64(n) * cfg.UltraFrac)
	if nUltra < 2 {
		nUltra = 2
	}
	if nUltra > n {
		nUltra = n
	}
	g.ultra = make([]bool, n)
	r := rng.NewNamed(seed, "overlay/gnutella")
	perm := r.Perm(n)
	ultras := perm[:nUltra]
	for _, u := range ultras {
		g.ultra[u] = true
	}
	// Ultrapeer ring + chords.
	for i := range ultras {
		u, v := ultras[i], ultras[(i+1)%len(ultras)]
		if !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	for _, u := range ultras {
		for attempts := 0; g.Degree(u) < cfg.UltraDeg && attempts < 20*cfg.UltraDeg; attempts++ {
			v := ultras[r.Intn(len(ultras))]
			if v == u || g.HasEdge(u, v) || g.Degree(v) >= cfg.UltraDeg+4 {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	// Leaves.
	for _, leaf := range perm[nUltra:] {
		for k := 0; k < cfg.LeafUltras; k++ {
			u := ultras[r.Intn(len(ultras))]
			if g.HasEdge(leaf, u) {
				continue
			}
			if err := g.AddEdge(leaf, u); err != nil {
				return nil, err
			}
		}
	}
	g.compact()
	return g, nil
}

// IsConnected reports whether the graph is one component.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}
