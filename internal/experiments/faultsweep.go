package experiments

import (
	"fmt"

	"querycentric/internal/churn"
	"querycentric/internal/crawler"
	"querycentric/internal/faults"
	"querycentric/internal/rng"
)

// FaultPoint is the measurement at one fault rate: how much of the
// population the crawl still covers, how it degrades, and how flooded
// queries fare under the same loss.
type FaultPoint struct {
	Rate float64
	// Crawl funnel, as fractions of the peer population.
	Coverage    float64 // fully crawled peers / population
	PartialFrac float64 // partial-browse peers / population
	FailedFrac  float64 // peers lost entirely / population
	Retried     int     // retry attempts the crawler performed
	// RecordFrac is trace records observed vs. the fault-free crawl: the
	// trace-bias measure for Figures 1–4 (a lossy crawl undercounts
	// replicas and terms by exactly this factor).
	RecordFrac float64
	// FloodSuccess is the fraction of flooded known-item queries that
	// returned at least one hit (the Figure 8 degradation).
	FloodSuccess float64
}

// FaultSweepResult sweeps fault rates against crawl coverage and flood
// success, quantifying how much trace bias a lossy network introduces
// into the paper's measurements.
type FaultSweepResult struct {
	Peers       int
	DeadFrac    float64 // fraction of peers offline under the churn mask
	MaxAttempts int
	Points      []FaultPoint
}

// DefaultFaultRates is the sweep grid used when the caller passes none.
var DefaultFaultRates = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}

// FaultSweepConfig tunes the sweep.
type FaultSweepConfig struct {
	// Rates are the fault rates to sweep; nil uses DefaultFaultRates.
	// Each rate r maps to faults.Config{DialTimeout: r, HandshakeStall:
	// r/2, ConnReset: r/2, TruncateWrite: r/2, PeerDepart: r/4,
	// MessageLoss: r}.
	Rates []float64
	// DeadFrac, when positive, additionally marks a churn-sampled
	// fraction of peers offline for every non-zero rate (the liveness
	// mask shared with internal/churn).
	DeadFrac float64
	// MaxAttempts is the crawler's per-peer attempt budget (0 → 3).
	MaxAttempts int
}

// FaultSweepWith crawls and floods one calibrated population under
// increasing substrate fault rates. The rate-zero point is provably
// identical to the fault-free substrate (the plane is inert), so the
// curve reads directly as degradation relative to the paper's ideal
// crawl.
func FaultSweepWith(e *Env, cfg FaultSweepConfig) (*FaultSweepResult, error) {
	rates := cfg.Rates
	if rates == nil {
		rates = DefaultFaultRates
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	cat, err := e.buildCatalog()
	if err != nil {
		return nil, err
	}

	res := &FaultSweepResult{
		Peers:       e.P.GnutellaPeers,
		DeadFrac:    cfg.DeadFrac,
		MaxAttempts: cfg.MaxAttempts,
	}
	queries := e.queriesPerSample(50, 300)

	cleanRecords := 0
	for i, rate := range rates {
		if rate < 0 || rate > 1 {
			return nil, fmt.Errorf("experiments: fault rate %g out of range", rate)
		}
		nw, err := e.newNetwork(cat)
		if err != nil {
			return nil, err
		}
		if rate > 0 {
			plane := faults.New(faults.Config{
				Seed:           e.Seed + uint64(i),
				DialTimeout:    rate,
				HandshakeStall: rate / 2,
				ConnReset:      rate / 2,
				TruncateWrite:  rate / 2,
				PeerDepart:     rate / 4,
				MessageLoss:    rate,
			})
			if cfg.DeadFrac > 0 {
				// Session churn: offline peers time out and drop floods.
				mask, err := churn.OnlineMask(e.Seed, len(nw.Peers), 1-cfg.DeadFrac, cfg.DeadFrac)
				if err != nil {
					return nil, err
				}
				plane.SetLiveness(mask)
			}
			e.instrumentFaults(plane)
			nw.SetFaults(plane)
		}

		ccfg := crawler.DefaultConfig()
		ccfg.Obs = e.Obs
		ccfg.Seed = e.Seed
		ccfg.MaxAttempts = cfg.MaxAttempts
		ccfg.BackoffBase = 0 // bounded retries; no wall-clock waits in experiments
		// A production crawler bootstraps from several addresses so one
		// dead seed cannot zero the crawl; spread four across the
		// population.
		for s := 0; s < 4; s++ {
			ccfg.Seeds = append(ccfg.Seeds, nw.Peers[s*len(nw.Peers)/4].Addr)
		}
		tr, st, err := crawler.Crawl(nw, ccfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: crawling at rate %g: %w", rate, err)
		}
		if rate == 0 {
			cleanRecords = len(tr.Records)
		}

		pt := FaultPoint{
			Rate:        rate,
			Coverage:    float64(st.Crawled) / float64(len(nw.Peers)),
			PartialFrac: float64(st.PartialBrowses) / float64(len(nw.Peers)),
			FailedFrac:  float64(st.Failed) / float64(len(nw.Peers)),
			Retried:     st.Retried,
		}
		if cleanRecords > 0 {
			pt.RecordFrac = float64(len(tr.Records)) / float64(cleanRecords)
		}
		// The crawl-independent flood-degradation measure (Figure 8 under
		// the same loss).
		qbase := rng.NewNamed(e.Seed+uint64(i), "experiments/faultsweep-queries")
		if pt.FloodSuccess, err = e.knownItemSuccess(nw, queries, 4, qbase, "trial/"); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
