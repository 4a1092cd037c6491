package experiments

import (
	"fmt"

	"querycentric/internal/capacity"
	"querycentric/internal/events"
	"querycentric/internal/gnet"
)

// Saturation measures graceful degradation under flash-crowd overload:
// the same flash-crowd scenario swept over offered load, once per
// capacity arm — unbounded queues (the infinite-capacity assumption every
// prior message-cost number silently made), drop-tail shedding, random
// early drop, and TTL-aware shedding with circuit breakers. The unbounded
// arm's per-query message cost explodes past the saturation knee (growing
// backlog makes answers untimely, and untimely queries retry at full
// flood cost) while the bounded arms cap cost at the queue bound and
// trade it for a smooth success decline — with TTL-aware shedding keeping
// near-origin delivery alive where drop-tail blacks out entire rings.

// Saturation arm indices, in sweep and rendering order.
const (
	armUnbounded = iota
	armDropTail
	armRED
	armTTL
	armCount
)

// armPolicies maps arm index to its shedding policy.
var armPolicies = [armCount]capacity.Policy{
	capacity.Unbounded, capacity.DropTail, capacity.RED, capacity.TTLAware,
}

// armName labels an arm in tables and series prefixes.
func armName(arm int) string {
	return armPolicies[arm].String()
}

// SaturationConfig tunes the sweep.
type SaturationConfig struct {
	// Loads is the offered-load sweep in base queries per window, strictly
	// increasing. The flash crowd multiplies each by saturationFlash.Boost
	// inside the flash interval.
	Loads []int
	// Capacity is the bounded arms' plane template; Policy and Breakers
	// are overridden per arm (breakers ride on the TTL-aware arm only),
	// and the unbounded arm keeps the same service model with shedding
	// disabled.
	Capacity capacity.Config
	// Arms restricts the sweep to the named arms (policy tokens); empty
	// runs all four.
	Arms []string
}

// saturationFlash shapes the mid-run crowd all arms share.
var saturationFlash = events.FlashConfig{Start: 1200, End: 2400, Frac: 0.5, Boost: 3}

const (
	// saturationDuration and saturationWindow shape the one-hour
	// event-engine horizon and the metrics windows.
	saturationDuration int64 = 3600
	saturationWindow   int64 = 600
	// saturationBatchesPerWindow spreads each window's queries over this
	// many query events.
	saturationBatchesPerWindow = 4
	// saturationTTL bounds the measurement floods.
	saturationTTL = 3
	// saturationQueryRetries is the extra flood attempt an untimely query
	// makes — the feedback loop that makes the unbounded arm's cost
	// super-linear.
	saturationQueryRetries = 1
	// saturationAnswerDeadlineS is the queueing-delay budget for a hit to
	// count.
	saturationAnswerDeadlineS int64 = 600
	// saturationPingInterval is the maintenance loop's keepalive period
	// (pings charge the same queues).
	saturationPingInterval int64 = 300
)

// DefaultSaturationConfig sweeps an 81x offered-load range over 16-deep
// queues served at one message per 4 simulated seconds (a drain rate the
// lowest load fits under with room for keepalives, and the flash at the
// highest load exceeds severalfold), folds admission every 8 queries, and
// puts a last-resort 15-of-16 breaker with a one-minute cooldown on the
// TTL-aware arm. Each run lasts an hour; an unanswered query is retried
// once (two attempts in all).
func DefaultSaturationConfig(seed uint64) SaturationConfig {
	ccfg := capacity.DefaultConfig(seed)
	ccfg.ServiceCostMs = 4000
	return SaturationConfig{
		Loads:    []int{40, 120, 360, 1080, 3240},
		Capacity: ccfg,
	}
}

// Validate rejects sweeps that cannot run.
func (c SaturationConfig) Validate() error {
	if len(c.Loads) < 2 {
		return fmt.Errorf("experiments: saturation needs at least 2 loads, got %d", len(c.Loads))
	}
	for i, l := range c.Loads {
		if l < 1 {
			return fmt.Errorf("experiments: saturation load %d must be positive, got %d", i, l)
		}
		if i > 0 && l <= c.Loads[i-1] {
			return fmt.Errorf("experiments: saturation loads must be strictly increasing, got %v", c.Loads)
		}
	}
	if !c.Capacity.Enabled() {
		return fmt.Errorf("experiments: saturation Capacity must be enabled (positive ServiceCostMs)")
	}
	for _, a := range c.Arms {
		if _, err := capacity.ParsePolicy(a); err != nil {
			return fmt.Errorf("experiments: saturation arm: %w", err)
		}
	}
	// The remaining fields are checked by the scenario config each point
	// expands into; validate the most demanding arm once up front.
	return c.scenarioConfig(0, armTTL, c.Loads[0], "probe_").Validate()
}

// scenarioConfig expands one (arm, load) point into its scenario config.
func (c SaturationConfig) scenarioConfig(seed uint64, arm, load int, prefix string) events.ScenarioConfig {
	ccfg := c.Capacity
	ccfg.Policy = armPolicies[arm]
	ccfg.Breakers = arm == armTTL
	rp := gnet.DefaultRepairConfig(seed)
	rp.PingInterval = saturationPingInterval
	flash := saturationFlash
	return events.ScenarioConfig{
		Kind:             events.FlashCrowd,
		Seed:             seed,
		Duration:         saturationDuration,
		Window:           saturationWindow,
		QueriesPerWindow: load,
		BatchesPerWindow: saturationBatchesPerWindow,
		TTL:              saturationTTL,
		Repair:           rp,
		Flash:            &flash,
		Capacity:         &ccfg,
		QueryRetries:     saturationQueryRetries,
		AnswerDeadlineS:  saturationAnswerDeadlineS,
		SeriesPrefix:     prefix,
	}
}

// SaturationPoint is one (arm, load) measurement.
type SaturationPoint struct {
	// Load is the base offered load in queries per window.
	Load int `json:"load"`
	// Success is mean windowed success across the whole run; FlashSuccess
	// restricts the mean to windows overlapping the flash interval — the
	// number that shows who survives the crowd.
	Success      float64 `json:"success"`
	FlashSuccess float64 `json:"flash_success"`
	// Queries and Messages total the run; MsgPerQuery is their ratio (every
	// retry's floods count toward the query that issued them).
	Queries     int     `json:"queries"`
	Messages    int64   `json:"messages"`
	MsgPerQuery float64 `json:"msg_per_query"`
	// ShedFrac is the shed fraction of all admission attempts; MaxDepth the
	// deepest committed queue; BreakerOpens the breaker transitions.
	ShedFrac     float64 `json:"shed_frac"`
	MaxDepth     int64   `json:"max_depth"`
	BreakerOpens int64   `json:"breaker_opens"`
}

// SaturationArm is one policy's load sweep.
type SaturationArm struct {
	Arm    string            `json:"arm"`
	Points []SaturationPoint `json:"points"`
}

// SaturationResult is the full sweep.
type SaturationResult struct {
	Peers      int             `json:"peers"`
	TTL        int             `json:"ttl"`
	QueueDepth int             `json:"queue_depth"`
	Arms       []SaturationArm `json:"arms"`
}

// Table renders arm x load points in fixed order.
func (r *SaturationResult) Table() [][]string {
	rows := [][]string{{"arm", "load", "success", "flash_success", "msg_per_query", "shed_frac", "max_depth", "breaker_opens"}}
	for _, a := range r.Arms {
		for _, p := range a.Points {
			rows = append(rows, []string{
				a.Arm, fmt.Sprintf("%d", p.Load),
				fmt.Sprintf("%.4f", p.Success), fmt.Sprintf("%.4f", p.FlashSuccess),
				fmt.Sprintf("%.1f", p.MsgPerQuery), fmt.Sprintf("%.4f", p.ShedFrac),
				fmt.Sprintf("%d", p.MaxDepth), fmt.Sprintf("%d", p.BreakerOpens),
			})
		}
	}
	return rows
}

// Peak returns the named arm's point at the highest swept load (nil when
// absent).
func (r *SaturationResult) Peak(arm string) *SaturationPoint {
	for i := range r.Arms {
		if r.Arms[i].Arm == arm && len(r.Arms[i].Points) > 0 {
			return &r.Arms[i].Points[len(r.Arms[i].Points)-1]
		}
	}
	return nil
}

// SaturationWith sweeps the flash-crowd scenario over offered load for
// every capacity arm. Each point gets a fresh restore of the environment's
// population, so topology mutations (maintenance under overload degrades
// failure detection) never leak across points.
func SaturationWith(e *Env, cfg SaturationConfig) (*SaturationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &SaturationResult{
		Peers:      e.P.GnutellaPeers,
		TTL:        saturationTTL,
		QueueDepth: cfg.Capacity.QueueDepth,
	}
	wanted := func(arm int) bool {
		if len(cfg.Arms) == 0 {
			return true
		}
		for _, a := range cfg.Arms {
			if a == armName(arm) {
				return true
			}
		}
		return false
	}
	for arm := 0; arm < armCount; arm++ {
		if !wanted(arm) {
			continue
		}
		a := SaturationArm{Arm: armName(arm)}
		for _, load := range cfg.Loads {
			prefix := fmt.Sprintf("saturation_%s_%d_", armName(arm), load)
			sr, err := e.runScenario(cfg.scenarioConfig(e.Seed, arm, load, prefix))
			if err != nil {
				return nil, err
			}
			a.Points = append(a.Points, saturationPoint(load, sr))
		}
		res.Arms = append(res.Arms, a)
	}
	return res, nil
}

// saturationPoint folds one scenario run into its sweep point.
func saturationPoint(load int, sr *events.ScenarioResult) SaturationPoint {
	p := SaturationPoint{Load: load}
	var succ, flashSucc float64
	var nWin, nFlash int
	for _, w := range sr.Windows {
		succ += w.Success
		nWin++
		if w.Start < saturationFlash.End && w.End > saturationFlash.Start {
			flashSucc += w.Success
			nFlash++
		}
		p.Queries += w.Queries
		p.Messages += w.Messages
	}
	if nWin > 0 {
		p.Success = succ / float64(nWin)
	}
	if nFlash > 0 {
		p.FlashSuccess = flashSucc / float64(nFlash)
	}
	if p.Queries > 0 {
		p.MsgPerQuery = float64(p.Messages) / float64(p.Queries)
	}
	if st := sr.Capacity; st != nil {
		if att := st.Enqueued + st.Shed; att > 0 {
			p.ShedFrac = float64(st.Shed) / float64(att)
		}
		p.MaxDepth = st.MaxDepth
		p.BreakerOpens = st.BreakerOpens
	}
	return p
}
