package search

import (
	"fmt"
	"testing"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/stats"
	"querycentric/internal/strategy"
)

func ringGraph(t *testing.T, n int) *overlay.Graph {
	t.Helper()
	g, err := overlay.NewGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func placementAt(nodes int, holders ...int32) *Placement {
	return &Placement{Nodes: nodes, Holders: [][]int32{holders}}
}

func TestUniformPlacement(t *testing.T) {
	p, err := UniformPlacement(100, 50, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Objects() != 50 {
		t.Fatalf("objects = %d", p.Objects())
	}
	for i, h := range p.Holders {
		if len(h) != 5 {
			t.Fatalf("object %d has %d replicas", i, len(h))
		}
		seen := map[int32]bool{}
		for _, v := range h {
			if v < 0 || v >= 100 || seen[v] {
				t.Fatalf("object %d has invalid holders %v", i, h)
			}
			seen[v] = true
		}
	}
	if p.MeanReplicas() != 5 {
		t.Errorf("mean replicas = %v", p.MeanReplicas())
	}
	if _, err := UniformPlacement(10, 5, 11, 1); err == nil {
		t.Error("replicas > nodes accepted")
	}
	if _, err := UniformPlacement(0, 5, 1, 1); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestZipfPlacementShape(t *testing.T) {
	p, err := ZipfPlacement(1000, 5000, 2.45, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := p.ReplicaCounts()
	single := stats.FractionAtMost(counts, 1)
	if single < 0.5 || single > 0.9 {
		t.Errorf("singleton fraction = %v", single)
	}
	mean := p.MeanReplicas()
	if mean < 1.1 || mean > 3 {
		t.Errorf("mean replicas = %v, want ~1.5 (paper)", mean)
	}
	for i, h := range p.Holders {
		seen := map[int32]bool{}
		for _, v := range h {
			if seen[v] {
				t.Fatalf("object %d has duplicate holder", i)
			}
			seen[v] = true
		}
	}
}

func TestFloodFindsAdjacentReplica(t *testing.T) {
	g := ringGraph(t, 10)
	e, err := NewEngine(g, placementAt(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Flood(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hops != 1 {
		t.Errorf("result: %+v", res)
	}
}

func TestFloodRespectsTTL(t *testing.T) {
	g := ringGraph(t, 20)
	e, _ := NewEngine(g, placementAt(20, 5)) // 5 hops away from 0
	res, err := e.Flood(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found object beyond TTL")
	}
	if res.Peers != 8 { // 4 in each ring direction
		t.Errorf("peers = %d, want 8", res.Peers)
	}
	res, _ = e.Flood(0, 0, 5)
	if !res.Found || res.Hops != 5 {
		t.Errorf("TTL 5 result: %+v", res)
	}
}

func TestFloodOriginHolds(t *testing.T) {
	g := ringGraph(t, 5)
	e, _ := NewEngine(g, placementAt(5, 2))
	res, err := e.Flood(2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hops != 0 || res.Messages != 0 {
		t.Errorf("origin-hit result: %+v", res)
	}
}

func TestFloodValidation(t *testing.T) {
	g := ringGraph(t, 5)
	e, _ := NewEngine(g, placementAt(5, 2))
	if _, err := e.Flood(-1, 0, 1); err == nil {
		t.Error("bad origin accepted")
	}
	if _, err := e.Flood(0, 7, 1); err == nil {
		t.Error("bad object accepted")
	}
	if _, err := e.Flood(0, 0, 0); err == nil {
		t.Error("zero TTL accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := ringGraph(t, 5)
	if _, err := NewEngine(g, placementAt(6, 0)); err == nil {
		t.Error("mismatched placement accepted")
	}
}

func TestExpandingRingStopsEarly(t *testing.T) {
	g := ringGraph(t, 30)
	e, _ := NewEngine(g, placementAt(30, 2)) // 2 hops away
	res, err := e.ExpandingRing(0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hops != 2 {
		t.Errorf("result: %+v", res)
	}
	// Cost = ring1 (2 peers) + ring2 (4 peers).
	if res.Peers != 2+4 {
		t.Errorf("cumulative peers = %d, want 6", res.Peers)
	}
}

func TestExpandingRingFailure(t *testing.T) {
	g := ringGraph(t, 30)
	e, _ := NewEngine(g, placementAt(30, 15))
	res, err := e.ExpandingRing(0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found unreachable object")
	}
	if res.Peers == 0 {
		t.Error("no cost recorded")
	}
}

func TestRandomWalkFindsOnRing(t *testing.T) {
	g := ringGraph(t, 10)
	e, _ := NewEngine(g, placementAt(10, 5))
	r := rng.New(3)
	found := 0
	for i := 0; i < 50; i++ {
		res, err := e.RandomWalk(0, 0, 4, 50, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			found++
		}
	}
	if found < 40 {
		t.Errorf("random walk found target only %d/50 times", found)
	}
}

func TestRandomWalkRespectsBudget(t *testing.T) {
	g := ringGraph(t, 1000)
	e, _ := NewEngine(g, placementAt(1000, 500))
	r := rng.New(4)
	res, err := e.RandomWalk(0, 0, 2, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found object 500 hops away with 10-step walks")
	}
	if res.Messages > 20 {
		t.Errorf("messages = %d, exceeds walker budget", res.Messages)
	}
}

func TestSuccessRateUniformTheory(t *testing.T) {
	// On a well-mixed graph, success ≈ 1-(1-ρ)^peers for replication
	// ratio ρ. Just check monotonicity in replicas and sane bounds.
	g, err := overlay.NewGnutella(4000, overlay.DefaultGnutellaConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, reps := range []int{1, 10, 40, 160} {
		p, err := UniformPlacement(4000, 200, reps, 6)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, p)
		if err != nil {
			t.Fatal(err)
		}
		rate, err := e.SuccessRate(3, 300, func(r *rng.Source) int { return r.Intn(200) }, 7)
		if err != nil {
			t.Fatal(err)
		}
		if rate < prev {
			t.Errorf("success rate not monotone in replicas: %v after %v", rate, prev)
		}
		prev = rate
	}
	if prev < 0.3 {
		t.Errorf("160-replica TTL-3 success = %v, suspiciously low", prev)
	}
}

func TestZipfSuccessBelowUniform(t *testing.T) {
	// The paper's Figure 8 headline: Zipf placement (mean ~1.5) performs
	// far worse than uniform placement with ~0.1% replication.
	g, err := overlay.NewGnutella(4000, overlay.DefaultGnutellaConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := UniformPlacement(4000, 300, 39, 9) // ~1% at this scale
	if err != nil {
		t.Fatal(err)
	}
	zpf, err := ZipfPlacement(4000, 300, 2.45, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(r *rng.Source) int { return r.Intn(300) }
	eU, _ := NewEngine(g, uni)
	eZ, _ := NewEngine(g, zpf)
	rU, err := eU.SuccessRate(3, 400, pick, 10)
	if err != nil {
		t.Fatal(err)
	}
	rZ, err := eZ.SuccessRate(3, 400, pick, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rZ >= rU {
		t.Errorf("Zipf success %v not below uniform-39 %v", rZ, rU)
	}
}

// refSuccessRateN is SuccessRateN's reference: the per-trial fold, one
// scalar Searcher.Flood per trial over strategy.RunTrials.
func refSuccessRateN(e *Engine, ttl, trials int, pick func(r *rng.Source) int, seed uint64, workers int) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("search: trials must be positive")
	}
	t, err := strategy.RunTrials(workers, 0, trials, rng.NewNamed(seed, "search/success"), "trial/", e.NewSearcher,
		func(s *Searcher, _ int, r *rng.Source) (strategy.Outcome, error) {
			origin := r.Intn(e.g.N())
			res, err := s.Flood(origin, pick(r), ttl)
			return Outcome(res), err
		})
	return t.Success(), err
}

// TestSuccessRateNMatchesReference holds the bit-parallel SuccessRateN to
// the per-trial fold: the same rate, bit for bit, on flat and two-tier
// graphs, sparse, Zipf and dense placements (dense ones put the object on
// many origins), TTLs up to past the diameter, trial counts around the
// batch width, and one and eight workers.
func TestSuccessRateNMatchesReference(t *testing.T) {
	flat, err := overlay.NewErdosRenyi(50, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	twoTier, err := overlay.NewGnutella(700, overlay.DefaultGnutellaConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*overlay.Graph{flat, ringGraph(t, 30), twoTier} {
		n := g.N()
		const objects = 20
		uni, err := UniformPlacement(n, objects, max(1, n/100), 3)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := UniformPlacement(n, objects, n/3, 4)
		if err != nil {
			t.Fatal(err)
		}
		zpf, err := ZipfPlacement(n, objects, 2.45, n/10, 5)
		if err != nil {
			t.Fatal(err)
		}
		pick := func(r *rng.Source) int { return r.Intn(objects) }
		for pi, p := range []*Placement{uni, dense, zpf} {
			e, err := NewEngine(g, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, ttl := range []int{1, 2, 3, 4, 5, 6, 40} {
				for _, trials := range []int{1, 63, 64, 65, 200} {
					seed := uint64(100*ttl + trials)
					want, err := refSuccessRateN(e, ttl, trials, pick, seed, 1)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 8} {
						got, err := e.SuccessRateN(ttl, trials, pick, seed, workers)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("n=%d placement %d ttl %d trials %d workers %d: rate %v, per-trial reference %v",
								n, pi, ttl, trials, workers, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSuccessRateNErrorParity checks that SuccessRateN fails as the
// per-trial fold does: the same message for bad trial counts and TTLs, and
// the lowest failing trial's error when pick goes out of range.
func TestSuccessRateNErrorParity(t *testing.T) {
	g := ringGraph(t, 40)
	const objects = 5
	p, err := UniformPlacement(40, objects, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p)
	if err != nil {
		t.Fatal(err)
	}
	valid := func(r *rng.Source) int { return r.Intn(objects) }
	// About one trial in forty asks for an object past the end; the value
	// names the trial.
	sometimes := func(r *rng.Source) int {
		v := r.Intn(400)
		if v >= 390 {
			return v
		}
		return v % objects
	}
	cases := []struct {
		name        string
		ttl, trials int
		pick        func(r *rng.Source) int
	}{
		{"zero trials", 3, 0, valid},
		{"zero TTL", 0, 100, valid},
		{"negative TTL", -2, 100, valid},
		{"bad pick", 3, 500, sometimes},
		{"bad pick and TTL", 0, 500, sometimes},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 8} {
			_, want := refSuccessRateN(e, c.ttl, c.trials, c.pick, 9, workers)
			_, got := e.SuccessRateN(c.ttl, c.trials, c.pick, 9, workers)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%s, %d workers: error %v, per-trial reference %v", c.name, workers, got, want)
			}
		}
	}
}

func BenchmarkFloodTTL5(b *testing.B) {
	g, err := overlay.NewGnutella(40000, overlay.DefaultGnutellaConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := ZipfPlacement(40000, 1000, 2.45, 5000, 2)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(g, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Flood(i%40000, i%1000, 5); err != nil {
			b.Fatal(err)
		}
	}
}
