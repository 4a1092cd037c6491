package experiments

import (
	"querycentric/internal/overlay"
	"querycentric/internal/replication"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/zipf"
)

// ReplicationRow is one allocation strategy's measured outcome.
type ReplicationRow struct {
	Strategy string
	Basis    string // "query" or "file" popularity drove the allocation
	Success  float64
}

// ReplicationResult is the allocation-strategy ablation.
type ReplicationResult struct {
	Nodes  int
	Budget int
	Rows   []ReplicationRow
}

// ReplicationStrategies quantifies the paper's thesis with the classic
// allocation theory: distribute one replica budget by uniform,
// proportional and square-root rules, driven either by the query
// popularity (what a query-centric system would do) or by an uncorrelated
// file popularity of the same Zipf shape (what annotation-driven systems
// effectively do), and measure flooding success under the query
// distribution. Driven by query popularity both skewed rules beat uniform,
// proportional by the most; driven by file popularity they land near or
// below uniform. Square-root allocation minimises the expected search size
// under random probing (Cohen & Shenker), but it does not maximise success
// at a fixed, shallow TTL: there success rewards concentrating copies on
// the most-queried objects, which proportional allocation does more.
func ReplicationStrategies(e *Env) (*ReplicationResult, error) {
	nodes := e.P.SimNodes / 8
	if nodes < 500 {
		nodes = 500
	}
	// A scarce budget (mean 1.5 replicas/object, the paper's measured
	// mean) and a shallow TTL keep the regime where allocation matters;
	// generous budgets saturate every strategy.
	const objects = 250
	budget := objects * 3 / 2
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), e.Seed+100)
	if err != nil {
		return nil, err
	}
	qDist, err := zipf.New(objects, 1.0)
	if err != nil {
		return nil, err
	}
	qPop := make([]float64, objects)
	for i := 1; i <= objects; i++ {
		qPop[i-1] = qDist.Prob(i)
	}
	// File popularity: same Zipf shape over permuted ranks (Figure 7's
	// mismatch as a rank permutation).
	fPop := make([]float64, objects)
	perm := rng.NewNamed(e.Seed, "experiments/replication-perm").Perm(objects)
	for i, j := range perm {
		fPop[i] = qPop[j]
	}

	trials := e.P.SimTrials
	if trials < 200 {
		trials = 200
	}
	placeRNG := rng.NewNamed(e.Seed, "experiments/replication-place")
	pick := func(r *rng.Source) int { return qDist.Sample(r) - 1 }

	res := &ReplicationResult{Nodes: nodes, Budget: budget}
	for _, row := range []struct {
		strategy replication.Strategy
		basis    string
		pop      []float64
	}{
		{replication.Uniform, "query", qPop},
		{replication.SquareRoot, "query", qPop},
		{replication.Proportional, "query", qPop},
		{replication.SquareRoot, "file", fPop},
		{replication.Proportional, "file", fPop},
	} {
		counts, err := replication.Allocate(row.strategy, row.pop, budget, nodes)
		if err != nil {
			return nil, err
		}
		p := &search.Placement{Nodes: nodes, Holders: make([][]int32, objects)}
		for obj, c := range counts {
			idx := placeRNG.SampleInts(nodes, c)
			h := make([]int32, c)
			for j, v := range idx {
				h[j] = int32(v)
			}
			p.Holders[obj] = h
		}
		eng, err := search.NewEngine(g, p)
		if err != nil {
			return nil, err
		}
		rate, err := eng.SuccessRate(2, trials, pick, e.Seed+101)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ReplicationRow{
			Strategy: row.strategy.String(), Basis: row.basis, Success: rate,
		})
	}
	return res, nil
}
