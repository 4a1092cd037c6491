package experiments

import (
	"querycentric/internal/churn"
	"querycentric/internal/events"
	"querycentric/internal/gnet"
)

// ChurnRepair measures what overlay maintenance buys under session churn.
// One generated churn timeline (arrivals, polite departures, crashes)
// drives real topology mutation twice over the same population: once with
// no maintenance protocol — polite leavers erode the overlay, crashes
// leave ghost edges — and once with the full self-healing stack
// (ping/pong failure detection plus host-cache repair). Windowed
// known-item floods measure search success over time; a steady-state arm
// on the untouched fault-free overlay anchors the comparison. All three
// arms are event-engine scenarios over one population and share the query
// streams, so they differ only through topology and liveness.

// ChurnRepairConfig tunes the experiment.
type ChurnRepairConfig struct {
	// Timeline shapes the session process the overlay endures. Its
	// Duration is the run's horizon, a whole number of windows.
	Timeline churn.TimelineConfig
	// Repair shapes the maintenance loop. Its Repair flag is overridden
	// per arm.
	Repair gnet.RepairConfig
}

// DefaultChurnRepairConfig measures two simulated hours of churn with
// one-minute ping rounds (and ten-minute windows).
func DefaultChurnRepairConfig(seed uint64) ChurnRepairConfig {
	tl := churn.DefaultTimelineConfig(seed)
	tl.Duration = 2 * 3600
	rp := gnet.DefaultRepairConfig(seed)
	rp.PingInterval = 60
	return ChurnRepairConfig{
		Timeline: tl,
		Repair:   rp,
	}
}

// Validate rejects schedules that cannot make progress.
func (c ChurnRepairConfig) Validate() error {
	if err := c.Timeline.Validate(); err != nil {
		return err
	}
	return c.Repair.Validate()
}

// ChurnRepairResult is the three-way comparison.
type ChurnRepairResult struct {
	Peers int
	TTL   int
	// Static, NoRepair and Repair are the three arms' windowed runs: the
	// untouched overlay with everyone online, then the churn timeline with
	// maintenance off and on. A window's MeanDegree counts ghost edges
	// (the peer believes in them).
	Static, NoRepair, Repair *events.ScenarioResult
	// StaticSuccess, NoRepairMean and RepairMean average each arm's
	// windowed success.
	StaticSuccess float64
	NoRepairMean  float64
	RepairMean    float64
	// RecoveredFrac is how much of the static-vs-no-repair gap the
	// maintenance protocol wins back (1 = full recovery).
	RecoveredFrac float64
}

// ChurnRepairWith runs the churn-repair comparison. Maintenance is
// sequential (it mutates topology); only the measurement floods fan out,
// each trial on its own derived stream, so results are byte-identical at
// every worker count.
func ChurnRepairWith(e *Env, cfg ChurnRepairConfig) (*ChurnRepairResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The flood count per window scales with the environment's SimTrials.
	queries := e.queriesPerSample(40, 200)
	duration := cfg.Timeline.Duration
	res := &ChurnRepairResult{Peers: e.P.GnutellaPeers, TTL: repairTTL}
	var err error
	if res.Static, err = e.runScenario(repairScenario(e.Seed, events.SteadyState, duration, queries, cfg.Repair, false, "churn_repair_static_")); err != nil {
		return nil, err
	}
	arm := func(repair bool, prefix string) (*events.ScenarioResult, error) {
		scfg := repairScenario(e.Seed, events.SteadyState, duration, queries, cfg.Repair, repair, prefix)
		scfg.Churn = &cfg.Timeline
		return e.runScenario(scfg)
	}
	if res.NoRepair, err = arm(false, "churn_repair_norepair_"); err != nil {
		return nil, err
	}
	if res.Repair, err = arm(true, "churn_repair_repair_"); err != nil {
		return nil, err
	}
	res.StaticSuccess = meanWindowSuccess(res.Static.Windows)
	res.NoRepairMean = meanWindowSuccess(res.NoRepair.Windows)
	res.RepairMean = meanWindowSuccess(res.Repair.Windows)
	if gap := res.StaticSuccess - res.NoRepairMean; gap > 0 {
		res.RecoveredFrac = (res.RepairMean - res.NoRepairMean) / gap
	}
	return res, nil
}
