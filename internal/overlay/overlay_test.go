package overlay

import (
	"slices"
	"testing"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(0); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := NewGraph(-5); err == nil {
		t.Error("negative vertices accepted")
	}
}

func TestAddEdge(t *testing.T) {
	g, _ := NewGraph(5)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if g.Edges() != 1 {
		t.Errorf("edges = %d", g.Edges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Error("bad degrees")
	}
}

// connected reports whether a flood from vertex 0 reaches every other
// vertex.
func connected(g *Graph) bool { return len(NewCoverage(g).Reached(0, g.N())) == g.N()-1 }

func TestErdosRenyi(t *testing.T) {
	g, err := NewErdosRenyi(500, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(g) {
		t.Error("ER graph disconnected")
	}
	mean := 2 * float64(g.Edges()) / 500
	if mean < 7 || mean > 9 {
		t.Errorf("mean degree %v, want ~8", mean)
	}
	if g.TwoTier() {
		t.Error("ER graph should be flat")
	}
	if !g.Ultra(3) {
		t.Error("flat graph nodes must all relay")
	}
	if _, err := NewErdosRenyi(10, 1, 1); err == nil {
		t.Error("degree < 2 accepted")
	}
}

func TestGnutellaTwoTier(t *testing.T) {
	g, err := NewGnutella(2000, DefaultGnutellaConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(g) {
		t.Error("gnutella graph disconnected")
	}
	if !g.TwoTier() {
		t.Error("expected two-tier roles")
	}
	ultras := 0
	for v := 0; v < g.N(); v++ {
		if g.Ultra(v) {
			ultras++
		} else {
			// Leaves must connect only to ultrapeers.
			for _, nb := range g.Neighbors(v) {
				if !g.Ultra(int(nb)) {
					t.Fatalf("leaf %d adjacent to leaf %d", v, nb)
				}
			}
		}
	}
	if ultras < 200 || ultras > 400 {
		t.Errorf("ultrapeers = %d, want ~300", ultras)
	}
	if _, err := NewGnutella(100, GnutellaConfig{UltraFrac: 0}, 1); err == nil {
		t.Error("zero UltraFrac accepted")
	}
}

// TestCompactedAdjacency checks the packed lists the generators leave: the
// same edges and degrees as before packing, and an AddEdge afterwards that
// grows only its two lists, leaving every neighbouring list intact.
func TestCompactedAdjacency(t *testing.T) {
	g, _ := NewGraph(40)
	for i := 0; i < 40; i++ {
		g.AddEdge(i, (i+1)%40)
		g.AddEdge(i, (i*7+3)%40) // rejected duplicates and self loops are fine
	}
	has := func(g *Graph) (m []bool) {
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				m = append(m, g.HasEdge(u, v))
			}
		}
		return m
	}
	degrees := func(g *Graph) (d []int) {
		for v := 0; v < g.N(); v++ {
			d = append(d, g.Degree(v))
		}
		return d
	}
	wantHas, wantDeg := has(g), degrees(g)
	g.compact()
	if !slices.Equal(has(g), wantHas) || !slices.Equal(degrees(g), wantDeg) {
		t.Fatal("compact changed the edge set or the degree sequence")
	}

	for _, g := range []*Graph{g, testGraph(t, 300, true, 2), testGraph(t, 300, false, 3)} {
		before := make([][]int32, g.N())
		for v := range before {
			if a := g.Neighbors(v); cap(a) != len(a) {
				t.Fatalf("list %d has cap %d > len %d after compaction", v, cap(a), len(a))
			}
			before[v] = slices.Clone(g.Neighbors(v))
		}
		added, grew := map[[2]int]bool{}, make([]int, g.N())
		for u := 0; u < g.N(); u += 3 {
			v := (u*13 + 5) % g.N()
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				added[[2]int{u, v}], added[[2]int{v, u}] = true, true
				grew[u]++
				grew[v]++
			}
		}
		for v := range before {
			a := g.Neighbors(v)
			if len(a) != len(before[v])+grew[v] || !slices.Equal(a[:len(before[v])], before[v]) {
				t.Fatalf("list %d = %v, want prefix %v: AddEdge wrote over it", v, a, before[v])
			}
			for _, w := range a[len(before[v]):] {
				if !added[[2]int{v, int(w)}] || !g.HasEdge(int(w), v) {
					t.Fatalf("list %d gained %d, not an added edge", v, w)
				}
			}
		}
	}
}

func TestBFSBasics(t *testing.T) {
	// Path graph 0-1-2-3-4.
	g, _ := NewGraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	cov := NewCoverage(g)
	if got := len(cov.Reached(0, 1)); got != 1 {
		t.Errorf("TTL1 reached %d, want 1", got)
	}
	if got := len(cov.Reached(0, 2)); got != 2 {
		t.Errorf("TTL2 reached %d, want 2", got)
	}
	if got := len(cov.Reached(0, 10)); got != 4 {
		t.Errorf("TTL10 reached %d, want 4", got)
	}
	if got := len(cov.Reached(2, 1)); got != 2 {
		t.Errorf("mid TTL1 reached %d, want 2", got)
	}
	if got := len(cov.Reached(-1, 3)); got != 0 {
		t.Error("invalid origin should reach nothing")
	}
	if got := len(cov.Reached(0, 0)); got != 0 {
		t.Error("TTL 0 should reach nothing")
	}
}

func TestBFSLeavesDoNotRelay(t *testing.T) {
	// Star of ultrapeer 0 with leaves 1..4, leaf 1 also tied to ultra 5.
	g, _ := NewGraph(6)
	g.ultra = []bool{true, false, false, false, false, true}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(0, 4)
	g.AddEdge(1, 5)
	// From 0 with high TTL: reaches 1,2,3,4 but NOT 5 (leaf 1 won't relay).
	if got := len(NewCoverage(g).Reached(0, 10)); got != 4 {
		t.Errorf("reached %d, want 4 (leaf must not relay)", got)
	}
}

func TestCoverageReusable(t *testing.T) {
	g, err := NewErdosRenyi(300, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	cov := NewCoverage(g)
	for trial := 0; trial < 10; trial++ {
		origin := trial * 7 % 300
		for ttl := 1; ttl <= 3; ttl++ {
			want := len(NewCoverage(g).Reached(origin, ttl))
			got := len(cov.Reached(origin, ttl))
			if got != want {
				t.Fatalf("trial %d ttl %d: reused Coverage=%d fresh=%d", trial, ttl, got, want)
			}
		}
	}
}

func TestCoverageStatsMonotone(t *testing.T) {
	g, err := NewGnutella(3000, DefaultGnutellaConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	fracs, err := CoverageStatsN(g, 5, 30, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fracs) != 5 {
		t.Fatalf("got %d fractions", len(fracs))
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] < fracs[i-1] {
			t.Errorf("coverage not monotone at TTL %d: %v", i+1, fracs)
		}
	}
	if fracs[0] <= 0 || fracs[4] > 1 {
		t.Errorf("fractions out of range: %v", fracs)
	}
	// TTL-5 should cover a large share of a 3000-node two-tier net.
	if fracs[4] < 0.3 {
		t.Errorf("TTL-5 coverage %v suspiciously low", fracs[4])
	}
	if _, err := CoverageStatsN(g, 0, 1, 1, 1); err == nil {
		t.Error("maxTTL 0 accepted")
	}
	if _, err := CoverageStatsN(g, 1, 0, 1, 1); err == nil {
		t.Error("samples 0 accepted")
	}
}

func TestMeanQueryHops(t *testing.T) {
	g, err := NewGnutella(2000, DefaultGnutellaConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := MeanQueryHopsN(g, 4, 20, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hops < 1 || hops > 4 {
		t.Errorf("mean hops = %v, want within [1,4]", hops)
	}
	if _, err := MeanQueryHopsN(g, 0, 1, 1, 1); err == nil {
		t.Error("ttl 0 accepted")
	}
}

func BenchmarkBFS40kTTL5(b *testing.B) {
	g, err := NewGnutella(40000, DefaultGnutellaConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cov := NewCoverage(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov.Reached(i%40000, 5)
	}
}
