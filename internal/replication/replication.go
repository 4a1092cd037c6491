// Package replication implements the classic replica-allocation strategies
// for unstructured search (Cohen & Shenker, SIGCOMM 2002): uniform,
// proportional and square-root allocation of a replica budget across
// objects. (The analytic success/search-size model for random probing that
// the allocations are judged against lives with the tests, model_test.go.)
//
// Its role in the reproduction is to sharpen the paper's position into a
// quantitative statement: these strategies take a popularity vector as
// input, and the paper shows deployed systems effectively feed them *file*
// popularity while success is scored under *query* popularity. The
// experiment built on this package allocates replicas both ways and shows
// that under the measured mismatch the skewed strategies lose their
// advantage over uniform unless they are driven by the query distribution
// — the query-centric thesis. Square-root allocation is optimal for the
// expected search size under random probing, not for success at a fixed
// TTL: at the experiment's TTL 2, proportional allocation beats it.
package replication

import (
	"fmt"
	"math"
	"sort"
)

// Strategy selects an allocation rule.
type Strategy int

// The three classic allocations.
const (
	Uniform Strategy = iota
	Proportional
	SquareRoot
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Proportional:
		return "proportional"
	case SquareRoot:
		return "square-root"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Allocate distributes a total replica budget over len(popularity) objects
// according to the strategy, with every object receiving at least one
// replica and no object exceeding maxPer. Popularity values must be
// non-negative and not all zero. Largest-remainder rounding keeps the sum
// at max(budget, len(popularity)) exactly (up to the maxPer cap).
func Allocate(strategy Strategy, popularity []float64, budget, maxPer int) ([]int, error) {
	m := len(popularity)
	if m == 0 {
		return nil, fmt.Errorf("replication: no objects")
	}
	if maxPer < 1 {
		return nil, fmt.Errorf("replication: maxPer must be at least 1, got %d", maxPer)
	}
	weights := make([]float64, m)
	var total float64
	for i, p := range popularity {
		if p < 0 {
			return nil, fmt.Errorf("replication: negative popularity at %d", i)
		}
		switch strategy {
		case Uniform:
			weights[i] = 1
		case Proportional:
			weights[i] = p
		case SquareRoot:
			weights[i] = math.Sqrt(p)
		default:
			return nil, fmt.Errorf("replication: unknown strategy %d", strategy)
		}
		total += weights[i]
	}
	if total == 0 {
		// All-zero popularity degenerates to uniform.
		for i := range weights {
			weights[i] = 1
		}
		total = float64(m)
	}

	counts := make([]int, m)
	extra := budget - m
	if extra < 0 {
		extra = 0
	}
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, m)
	assigned := 0
	for i := range counts {
		exact := float64(extra) * weights[i] / total
		whole := int(exact)
		counts[i] = 1 + whole
		assigned += whole
		fracs[i] = frac{idx: i, f: exact - float64(whole)}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].idx < fracs[b].idx
	})
	for left := extra - assigned; left > 0; {
		progressed := false
		for _, fr := range fracs {
			if left == 0 {
				break
			}
			if counts[fr.idx] < maxPer {
				counts[fr.idx]++
				left--
				progressed = true
			}
		}
		if !progressed {
			break // every object capped
		}
	}
	for i := range counts {
		if counts[i] > maxPer {
			counts[i] = maxPer
		}
	}
	return counts, nil
}
