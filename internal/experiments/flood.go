package experiments

import (
	"fmt"
	"math"

	"querycentric/internal/hybrid"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
)

// MaxTTL is the deepest flood the paper sweeps.
const MaxTTL = 5

// TTLCoverageResult is the §V table: mean fraction of peers processed per
// TTL, plus the mean query hop count (paper: 2.47 hops in 2006).
type TTLCoverageResult struct {
	Nodes     int
	Fractions []float64 // index 0 = TTL 1
	MeanHops  float64
}

// TTLCoverage reproduces the §V coverage table: on a 40,000-node
// Gnutella-like network, TTL 1..5 floods reach ≈0.05%, ~0.3%, ~2.6%,
// 26.25% and 82.95% of peers.
func TTLCoverage(e *Env) (*TTLCoverageResult, error) {
	g, err := overlay.NewGnutella(e.P.SimNodes, overlay.DefaultGnutellaConfig(), e.Seed+2)
	if err != nil {
		return nil, err
	}
	samples := e.P.SimTrials / 10
	if samples < 20 {
		samples = 20
	}
	fracs, err := overlay.CoverageStatsN(g, MaxTTL, samples, e.Seed+3, e.workers())
	if err != nil {
		return nil, err
	}
	hops, err := overlay.MeanQueryHopsN(g, 3, samples, e.Seed+4, e.workers())
	if err != nil {
		return nil, err
	}
	return &TTLCoverageResult{Nodes: e.P.SimNodes, Fractions: fracs, MeanHops: hops}, nil
}

// Fig8Curve is one success-rate curve of Figure 8.
type Fig8Curve struct {
	Label    string
	Replicas int       // 0 for the Zipf curve
	Success  []float64 // index 0 = TTL 1
}

// Fig8Result holds every curve of Figure 8.
type Fig8Result struct {
	Nodes       int
	Curves      []Fig8Curve
	ZipfMean    float64 // measured mean replicas of the Zipf placement
	ZipfAtTTL3  float64
	Uni39AtTTL3 float64
}

// fig8UniformReplicas are the paper's uniform replica counts at 40,000
// nodes; other scales use the same replication ratios.
var fig8UniformReplicas = []int{1, 4, 9, 19, 39}

// Fig8 reproduces Figure 8: flood success rates for uniform placements
// (r ∈ {1,4,9,19,39} at 40,000 nodes) and the measured Zipf placement, for
// TTL 1..5. The paper's shape: the Zipf curve tracks the sparsest uniform
// curves; at TTL 3 Zipf succeeds ≈5% while the 0.1%-uniform model predicts
// ≈62%.
func Fig8(e *Env) (*Fig8Result, error) {
	nodes := e.P.SimNodes
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), e.Seed+5)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{Nodes: nodes}
	objects := 300
	trials := e.P.SimTrials
	pick := func(r *rng.Source) int { return r.Intn(objects) }

	// sweep measures one placement's success curve over TTL 1..MaxTTL;
	// TTL t draws its trials from seed+t.
	sweep := func(label string, reps int, p *search.Placement, seed uint64) (Fig8Curve, error) {
		curve := Fig8Curve{Label: label, Replicas: reps}
		eng, err := search.NewEngine(g, p)
		if err != nil {
			return curve, err
		}
		for ttl := 1; ttl <= MaxTTL; ttl++ {
			rate, err := eng.SuccessRateN(ttl, trials, pick, seed+uint64(ttl), e.workers())
			if err != nil {
				return curve, err
			}
			curve.Success = append(curve.Success, rate)
		}
		out.Curves = append(out.Curves, curve)
		return curve, nil
	}

	for _, base := range fig8UniformReplicas {
		reps := scaleReplicas(base, nodes)
		p, err := search.UniformPlacement(nodes, objects, reps, e.Seed+6)
		if err != nil {
			return nil, err
		}
		curve, err := sweep(fmt.Sprintf("uniform-%d", base), reps, p, e.Seed+7)
		if err != nil {
			return nil, err
		}
		if base == 39 {
			out.Uni39AtTTL3 = curve.Success[2]
		}
	}

	zp, err := search.ZipfPlacement(nodes, objects, 2.45, nodes/10, e.Seed+8)
	if err != nil {
		return nil, err
	}
	curve, err := sweep("zipf", 0, zp, e.Seed+20)
	if err != nil {
		return nil, err
	}
	out.ZipfAtTTL3 = curve.Success[2]
	out.ZipfMean = zp.MeanReplicas()
	return out, nil
}

// scaleReplicas converts a 40,000-node replica count into the equivalent
// replication ratio at the simulated size.
func scaleReplicas(base, nodes int) int {
	r := int(math.Round(float64(base) * float64(nodes) / 40000))
	if r < 1 {
		r = 1
	}
	if r > nodes {
		r = nodes
	}
	return r
}

// HybridVsDHTResult is the §V/§VII comparison.
type HybridVsDHTResult struct {
	Nodes      int
	Comparison *hybrid.Comparison
}

// HybridVsDHT reproduces the hybrid-vs-DHT claim: under the observed Zipf
// placement, a hybrid system's TTL-3 flood almost always fails the
// rare-query test, so it pays flood + DHT and ends up costlier than a pure
// DHT at equal success.
func HybridVsDHT(e *Env) (*HybridVsDHTResult, error) {
	nodes := e.P.SimNodes / 8
	if nodes < 500 {
		nodes = 500
	}
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), e.Seed+30)
	if err != nil {
		return nil, err
	}
	objects := 200
	p, err := search.ZipfPlacement(nodes, objects, 2.45, nodes/10, e.Seed+31)
	if err != nil {
		return nil, err
	}
	sys, err := hybrid.New(g, p, e.Seed+32)
	if err != nil {
		return nil, err
	}
	trials := e.P.SimTrials / 2
	if trials < 100 {
		trials = 100
	}
	cmp, err := sys.Compare(hybrid.DefaultConfig(), trials,
		func(r *rng.Source) int { return r.Intn(objects) }, e.Seed+33)
	if err != nil {
		return nil, err
	}
	return &HybridVsDHTResult{Nodes: nodes, Comparison: cmp}, nil
}
