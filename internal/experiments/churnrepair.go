package experiments

import (
	"fmt"

	"querycentric/internal/churn"
	"querycentric/internal/events"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
)

// ChurnRepair measures what overlay maintenance buys under session churn.
// One generated churn timeline (arrivals, polite departures, crashes)
// drives real topology mutation twice over the same population: once with
// no maintenance protocol — polite leavers erode the overlay, crashes
// leave ghost edges — and once with the full self-healing stack
// (ping/pong failure detection plus host-cache repair). TTL-bounded
// known-item floods sample search success over time; the static fault-free
// network anchors the comparison.

// ChurnRepairConfig tunes the experiment.
type ChurnRepairConfig struct {
	// Timeline shapes the session process the overlay endures.
	Timeline churn.TimelineConfig
	// Repair shapes the maintenance loop. Its Repair flag is overridden
	// per scenario.
	Repair gnet.RepairConfig
	// SampleEvery is the measurement period in seconds.
	SampleEvery int64
	// TTL bounds the measurement floods.
	TTL int
	// QueriesPerSample is the flood count per measurement point (0 scales
	// with the environment's SimTrials).
	QueriesPerSample int
}

// DefaultChurnRepairConfig measures two simulated hours of churn with
// one-minute ping rounds and ten-minute samples.
func DefaultChurnRepairConfig(seed uint64) ChurnRepairConfig {
	tl := churn.DefaultTimelineConfig(seed)
	tl.Duration = 2 * 3600
	rp := gnet.DefaultRepairConfig(seed)
	rp.PingInterval = 60
	return ChurnRepairConfig{
		Timeline:    tl,
		Repair:      rp,
		SampleEvery: 600,
		TTL:         3,
	}
}

// Validate rejects schedules that cannot make progress.
func (c ChurnRepairConfig) Validate() error {
	if err := c.Timeline.Validate(); err != nil {
		return err
	}
	if err := c.Repair.Validate(); err != nil {
		return err
	}
	switch {
	case c.SampleEvery <= 0:
		return fmt.Errorf("experiments: churn-repair SampleEvery must be positive, got %d", c.SampleEvery)
	case c.TTL < 1:
		return fmt.Errorf("experiments: churn-repair TTL must be at least 1, got %d", c.TTL)
	case c.QueriesPerSample < 0:
		return fmt.Errorf("experiments: churn-repair QueriesPerSample must be non-negative, got %d", c.QueriesPerSample)
	}
	return nil
}

// ChurnRepairSample is one measurement point of one scenario.
type ChurnRepairSample struct {
	Time       int64
	OnlineFrac float64
	// MeanDegree averages connection counts over online peers — the
	// topology-health signal (ghost edges count: the peer believes in
	// them).
	MeanDegree float64
	// Success is the known-item flood hit fraction at the configured TTL.
	Success float64
}

// ChurnRepairResult is the three-way comparison.
type ChurnRepairResult struct {
	Peers  int
	TTL    int
	Events int // timeline transitions applied to each scenario
	// StaticSuccess is flood success on the untouched fault-free overlay,
	// averaged over the same per-sample query streams.
	StaticSuccess float64
	NoRepair      []ChurnRepairSample
	Repair        []ChurnRepairSample
	NoRepairMean  float64
	RepairMean    float64
	// RecoveredFrac is how much of the static-vs-no-repair gap the
	// maintenance protocol wins back (1 = full recovery).
	RecoveredFrac float64
	// RepairStats are the repair-scenario maintenance counters.
	RepairStats gnet.RepairStats
}

// ChurnRepair runs the experiment with default configuration.
func ChurnRepair(e *Env) (*ChurnRepairResult, error) {
	return ChurnRepairWith(e, DefaultChurnRepairConfig(e.Seed))
}

// ChurnRepairWith runs the churn-repair comparison. Maintenance is
// sequential (it mutates topology); only the measurement floods fan out,
// each trial on its own derived stream, so results are byte-identical at
// every worker count.
func ChurnRepairWith(e *Env, cfg ChurnRepairConfig) (*ChurnRepairResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	queries := cfg.QueriesPerSample
	if queries == 0 {
		queries = e.queriesPerSample(40, 200)
	}
	cat, err := e.buildCatalog()
	if err != nil {
		return nil, err
	}
	tl, err := churn.GenerateTimeline(cfg.Timeline, e.P.GnutellaPeers)
	if err != nil {
		return nil, err
	}

	res := &ChurnRepairResult{
		Peers:  e.P.GnutellaPeers,
		TTL:    cfg.TTL,
		Events: len(tl.Events),
	}

	// measure floods known-item queries from live origins; sample si of
	// every scenario shares the stream family "sample/si/trial/*", so
	// scenarios differ only through topology and liveness.
	qbase := rng.NewNamed(e.Seed, "experiments/churn-repair-queries")
	measure := func(nw *gnet.Network, si int) (float64, error) {
		return e.knownItemSuccess(nw, queries, cfg.TTL, qbase, fmt.Sprintf("sample/%d/trial/", si))
	}

	samples := int(cfg.Timeline.Duration / cfg.SampleEvery)

	// Static anchor: the untouched overlay, everyone online, same query
	// streams averaged over the same sample indices.
	static, err := e.newNetwork(cat)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for si := 0; si < samples; si++ {
		s, err := measure(static, si)
		if err != nil {
			return nil, err
		}
		sum += s
	}
	if samples > 0 {
		res.StaticSuccess = sum / float64(samples)
	}

	// run replays the timeline against a fresh overlay on the event engine:
	// within one simulated second churn transitions apply first, then the
	// maintenance tick, then the measurement (PrioChurn < PrioMaint <
	// PrioQuery).
	run := func(repair bool) ([]ChurnRepairSample, gnet.RepairStats, error) {
		nw, err := e.newNetwork(cat)
		if err != nil {
			return nil, gnet.RepairStats{}, err
		}
		rcfg := cfg.Repair
		rcfg.Repair = repair
		m, err := gnet.NewMaintainer(nw, rcfg, tl.Initial)
		if err != nil {
			return nil, gnet.RepairStats{}, err
		}
		eng, err := events.New(e.Seed, cfg.Timeline.Duration)
		if err != nil {
			return nil, gnet.RepairStats{}, err
		}
		if err := events.ScheduleTimeline(eng, tl, m, nil); err != nil {
			return nil, gnet.RepairStats{}, err
		}
		err = events.Every(eng, rcfg.PingInterval, rcfg.PingInterval, events.PrioMaint, "maint", func(_ int, now int64) error {
			m.Tick(now)
			return nil
		})
		if err != nil {
			return nil, gnet.RepairStats{}, err
		}
		var out []ChurnRepairSample
		err = events.Every(eng, cfg.SampleEvery, cfg.SampleEvery, events.PrioQuery, "sample", func(si int, now int64) error {
			s := ChurnRepairSample{Time: now}
			s.OnlineFrac, s.MeanDegree = gnet.LiveDegree(nw, m.Online())
			var err error
			s.Success, err = measure(nw, si)
			out = append(out, s)
			return err
		})
		if err != nil {
			return nil, gnet.RepairStats{}, err
		}
		if err := eng.Run(); err != nil {
			return nil, gnet.RepairStats{}, err
		}
		return out, m.Stats(), nil
	}

	if res.NoRepair, _, err = run(false); err != nil {
		return nil, err
	}
	if res.Repair, res.RepairStats, err = run(true); err != nil {
		return nil, err
	}
	res.NoRepairMean = meanSuccess(res.NoRepair)
	res.RepairMean = meanSuccess(res.Repair)
	if gap := res.StaticSuccess - res.NoRepairMean; gap > 0 {
		res.RecoveredFrac = (res.RepairMean - res.NoRepairMean) / gap
	}
	return res, nil
}

func meanSuccess(ss []ChurnRepairSample) float64 {
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.Success
	}
	return sum / float64(len(ss))
}
