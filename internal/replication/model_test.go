package replication

import (
	"fmt"
	"math"
)

// The analytic model of random probing (Cohen & Shenker): the reference the
// allocation tests judge Allocate against. No experiment calls it — the
// runners measure success by flooding — so it lives with the tests.

// ExpectedSuccess returns the query-weighted probability that probing
// `probe` uniformly random nodes (with replacement, out of `nodes`) finds
// the target: Σ_i q_i · (1 − (1 − c_i/nodes)^probe), with q normalized.
// An all-zero query popularity clamps to uniform weights, mirroring
// Allocate's degenerate case — a popularity sketch that observed no
// queries yet must not abort an adaptation round.
func ExpectedSuccess(counts []int, queryPopularity []float64, nodes, probe int) (float64, error) {
	if len(counts) != len(queryPopularity) {
		return 0, fmt.Errorf("replication: %d counts for %d popularities", len(counts), len(queryPopularity))
	}
	if len(counts) == 0 {
		return 0, fmt.Errorf("replication: no objects")
	}
	if nodes < 1 || probe < 1 {
		return 0, fmt.Errorf("replication: nodes and probe must be positive")
	}
	weight := normalizedQueryWeights(queryPopularity)
	var success float64
	for i, c := range counts {
		if c > nodes {
			c = nodes
		}
		miss := math.Pow(1-float64(c)/float64(nodes), float64(probe))
		success += weight(i) * (1 - miss)
	}
	return success, nil
}

// ExpectedSearchSize returns the query-weighted expected number of probes
// to the first replica, E[probes] = nodes/c_i for random probing, a
// standard figure of merit for allocation strategies. An all-zero query
// popularity clamps to uniform weights (see ExpectedSuccess); replica
// counts below one clamp to one.
func ExpectedSearchSize(counts []int, queryPopularity []float64, nodes int) (float64, error) {
	if len(counts) != len(queryPopularity) {
		return 0, fmt.Errorf("replication: %d counts for %d popularities", len(counts), len(queryPopularity))
	}
	if len(counts) == 0 {
		return 0, fmt.Errorf("replication: no objects")
	}
	if nodes < 1 {
		return 0, fmt.Errorf("replication: nodes must be positive")
	}
	weight := normalizedQueryWeights(queryPopularity)
	var size float64
	for i, c := range counts {
		if c < 1 {
			c = 1
		}
		size += weight(i) * float64(nodes) / float64(c)
	}
	return size, nil
}

// normalizedQueryWeights returns the normalized query-popularity weight
// function, clamping an all-zero vector to uniform.
func normalizedQueryWeights(queryPopularity []float64) func(i int) float64 {
	var qTotal float64
	for _, q := range queryPopularity {
		qTotal += q
	}
	if qTotal == 0 {
		uniform := 1 / float64(len(queryPopularity))
		return func(int) float64 { return uniform }
	}
	return func(i int) float64 { return queryPopularity[i] / qTotal }
}
