package gia

import (
	"testing"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
)

func buildGia(t *testing.T, n int, p *search.Placement) *System {
	t.Helper()
	s, err := New(n, p, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	p, _ := search.UniformPlacement(10, 2, 1, 1)
	if _, err := New(1, p, DefaultConfig(1)); err == nil {
		t.Error("single node accepted")
	}
	if _, err := New(20, p, DefaultConfig(1)); err == nil {
		t.Error("mismatched placement accepted")
	}
}

func TestCapacityDistribution(t *testing.T) {
	p, _ := search.UniformPlacement(5000, 10, 1, 2)
	s := buildGia(t, 5000, p)
	counts := map[float64]int{}
	for _, c := range s.Capacities {
		counts[c]++
	}
	if counts[1] == 0 || counts[10] == 0 || counts[100] == 0 {
		t.Errorf("capacity levels missing: %v", counts)
	}
	// 10x should be the most common level (45%).
	if counts[10] < counts[1] || counts[10] < counts[100] {
		t.Errorf("capacity distribution off: %v", counts)
	}
}

func TestTopologyCapacityCorrelation(t *testing.T) {
	p, _ := search.UniformPlacement(3000, 10, 1, 3)
	s := buildGia(t, 3000, p)
	if len(overlay.NewCoverage(s.Graph).Reached(0, 3000)) != 2999 {
		t.Fatal("gia topology disconnected")
	}
	// Mean degree of 100x+ nodes should exceed mean degree of 1x nodes.
	var hiDeg, hiN, loDeg, loN float64
	for v := 0; v < 3000; v++ {
		d := float64(s.Graph.Degree(v))
		if s.Capacities[v] >= 100 {
			hiDeg += d
			hiN++
		} else if s.Capacities[v] == 1 {
			loDeg += d
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("degenerate capacity draw")
	}
	if hiDeg/hiN <= loDeg/loN {
		t.Errorf("high-capacity mean degree %.1f not above low-capacity %.1f",
			hiDeg/hiN, loDeg/loN)
	}
}

func TestSearchFindsNeighbourReplica(t *testing.T) {
	p, _ := search.UniformPlacement(100, 1, 1, 4)
	s := buildGia(t, 100, p)
	holder := int(p.Holders[0][0])
	// Search from a neighbour of the holder: one-hop replication makes it
	// an immediate hit.
	nbs := s.Graph.Neighbors(holder)
	origin := int(nbs[0])
	res, err := s.Search(origin, 0, 10, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hops != 0 {
		t.Errorf("one-hop replication miss: %+v", res)
	}
}

func TestSearchValidation(t *testing.T) {
	p, _ := search.UniformPlacement(50, 2, 1, 6)
	s := buildGia(t, 50, p)
	r := rng.New(7)
	if _, err := s.Search(-1, 0, 5, r); err == nil {
		t.Error("bad origin accepted")
	}
	if _, err := s.Search(0, 5, 5, r); err == nil {
		t.Error("bad object accepted")
	}
	if _, err := s.Search(0, 0, 0, r); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestSuccessRateUniformVsZipf(t *testing.T) {
	// Gia's published evaluation: uniform 0.5% replication works well. The
	// paper's rebuttal: Zipf-placed objects (mean ~1.5 replicas) fare far
	// worse under the same budget.
	const n = 2000
	uni, err := search.UniformPlacement(n, 100, 10, 8) // 0.5%
	if err != nil {
		t.Fatal(err)
	}
	zpf, err := search.ZipfPlacement(n, 100, 2.45, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(r *rng.Source) int { return r.Intn(100) }
	sUni := buildGia(t, n, uni)
	sZpf := buildGia(t, n, zpf)
	rUni, err := sUni.SuccessRate(128, 200, pick, 9)
	if err != nil {
		t.Fatal(err)
	}
	rZpf, err := sZpf.SuccessRate(128, 200, pick, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rUni < 0.5 {
		t.Errorf("uniform-0.5%% Gia success = %v, expected strong", rUni)
	}
	if rZpf >= rUni {
		t.Errorf("Zipf success %v not below uniform %v", rZpf, rUni)
	}
}

func TestSuccessRateValidation(t *testing.T) {
	p, _ := search.UniformPlacement(50, 2, 1, 10)
	s := buildGia(t, 50, p)
	if _, err := s.SuccessRate(5, 0, func(r *rng.Source) int { return 0 }, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func BenchmarkGiaSearch(b *testing.B) {
	p, err := search.ZipfPlacement(5000, 500, 2.45, 500, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(5000, p, DefaultConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(i%5000, i%500, 128, r); err != nil {
			b.Fatal(err)
		}
	}
}
