package experiments

import (
	"fmt"

	"querycentric/internal/events"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
)

// Recovery measures the overlay's recovery curve after a correlated crash
// burst, on the discrete-event engine: one population runs the
// fault-recovery scenario twice — once with the full maintenance stack and
// once with maintenance disabled — and the windowed success series show
// search quality dropping at the burst, then climbing back under repair
// while the unmaintained overlay stays degraded. This is the time-resolved
// companion to ChurnRepair: same machinery, but a single catastrophic
// event instead of steady background churn, so the output is a recovery
// time rather than an average.

// RecoveryConfig tunes the experiment.
type RecoveryConfig struct {
	// BurstTime is when the correlated crash fires (seconds into the run).
	BurstTime int64
	// BurstFrac is the fraction of the population crashing at BurstTime.
	BurstFrac float64
	// Duration and Window shape the event-engine horizon and the metrics
	// windows.
	Duration int64
	Window   int64
	// QueriesPerWindow is the measurement flood volume per window (0 scales
	// with the environment's SimTrials).
	QueriesPerWindow int
	// BatchesPerWindow spreads each window's queries over this many query
	// events.
	BatchesPerWindow int
	// TTL bounds the measurement floods.
	TTL int
	// Repair shapes the maintenance loop of the repair arm. Its Repair flag
	// is overridden per arm.
	Repair gnet.RepairConfig
	// RecoverFrac defines "recovered": windowed success at or above this
	// fraction of the pre-burst mean.
	RecoverFrac float64
}

// DefaultRecoveryConfig crashes 30% of the population one third into a
// two-hour run, with one-minute ping rounds, ten-minute windows and the
// 0.95x-of-baseline recovery bar.
func DefaultRecoveryConfig(seed uint64) RecoveryConfig {
	rp := gnet.DefaultRepairConfig(seed)
	rp.PingInterval = 60
	return RecoveryConfig{
		BurstTime:        2400,
		BurstFrac:        0.3,
		Duration:         2 * 3600,
		Window:           600,
		BatchesPerWindow: 4,
		TTL:              3,
		Repair:           rp,
		RecoverFrac:      0.95,
	}
}

// Validate rejects schedules that cannot run.
func (c RecoveryConfig) Validate() error {
	if err := (faults.Burst{Time: c.BurstTime, Frac: c.BurstFrac}).Validate(); err != nil {
		return err
	}
	switch {
	case c.BurstTime >= c.Duration:
		return fmt.Errorf("experiments: recovery burst at %d is outside the %d-second run", c.BurstTime, c.Duration)
	case c.RecoverFrac <= 0 || c.RecoverFrac > 1:
		return fmt.Errorf("experiments: recovery RecoverFrac must be in (0,1], got %v", c.RecoverFrac)
	case c.QueriesPerWindow < 0:
		return fmt.Errorf("experiments: recovery QueriesPerWindow must be non-negative, got %d", c.QueriesPerWindow)
	}
	// Duration/Window/BatchesPerWindow/TTL/Repair are checked by the
	// scenario config this expands into.
	scfg := events.ScenarioConfig{
		Kind: events.FaultRecovery, Duration: c.Duration, Window: c.Window,
		QueriesPerWindow: max(1, c.QueriesPerWindow), BatchesPerWindow: c.BatchesPerWindow,
		TTL: c.TTL, Repair: c.Repair,
	}
	return scfg.Validate()
}

// RecoveryResult is the two-arm recovery comparison.
type RecoveryResult struct {
	Peers     int     `json:"peers"`
	TTL       int     `json:"ttl"`
	BurstTime int64   `json:"burst_time"`
	BurstFrac float64 `json:"burst_frac"`
	// PreBurstSuccess is the repair arm's mean windowed success over the
	// windows closing at or before the burst — the recovery baseline.
	PreBurstSuccess float64 `json:"pre_burst_success"`
	// Repair and NoRepair are the windowed series of the two arms.
	Repair   []events.Window `json:"repair"`
	NoRepair []events.Window `json:"no_repair"`
	// RepairFinal and NoRepairFinal average each arm's last two windows.
	RepairFinal   float64 `json:"repair_final"`
	NoRepairFinal float64 `json:"no_repair_final"`
	// RecoveryTime is the seconds from the burst until the repair arm's
	// windowed success first reaches RecoverFrac of the pre-burst mean
	// again (-1: never within the horizon). NoRepairRecoveryTime is the
	// same bar for the unmaintained arm.
	RecoveryTime         int64 `json:"recovery_time_s"`
	NoRepairRecoveryTime int64 `json:"no_repair_recovery_time_s"`
	// RepairStats are the repair arm's maintenance counters.
	RepairStats gnet.RepairStats `json:"repair_stats"`
}

// Recovery runs the experiment with default configuration.
func Recovery(e *Env) (*RecoveryResult, error) {
	return RecoveryWith(e, DefaultRecoveryConfig(e.Seed))
}

// RecoveryWith runs the recovery comparison on the discrete-event engine.
// Each arm replays the identical event schedule (same burst victims, same
// query streams) against a fresh overlay; only the Repair flag differs, so
// the two curves isolate what maintenance buys.
func RecoveryWith(e *Env, cfg RecoveryConfig) (*RecoveryResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	queries := cfg.QueriesPerWindow
	if queries == 0 {
		queries = e.queriesPerSample(40, 200)
	}
	cat, err := e.buildCatalog()
	if err != nil {
		return nil, err
	}

	run := func(repair bool, prefix string) (*events.ScenarioResult, error) {
		rcfg := cfg.Repair
		rcfg.Repair = repair
		return e.runScenario(cat, events.ScenarioConfig{
			Kind:             events.FaultRecovery,
			Seed:             e.Seed,
			Duration:         cfg.Duration,
			Window:           cfg.Window,
			QueriesPerWindow: queries,
			BatchesPerWindow: cfg.BatchesPerWindow,
			TTL:              cfg.TTL,
			Repair:           rcfg,
			Bursts:           []faults.Burst{{Time: cfg.BurstTime, Frac: cfg.BurstFrac}},
			SeriesPrefix:     prefix,
		})
	}

	withRepair, err := run(true, "recovery_repair_")
	if err != nil {
		return nil, err
	}
	noRepair, err := run(false, "recovery_norepair_")
	if err != nil {
		return nil, err
	}

	res := &RecoveryResult{
		Peers:                e.P.GnutellaPeers,
		TTL:                  cfg.TTL,
		BurstTime:            cfg.BurstTime,
		BurstFrac:            cfg.BurstFrac,
		Repair:               withRepair.Windows,
		NoRepair:             noRepair.Windows,
		RecoveryTime:         -1,
		NoRepairRecoveryTime: -1,
		RepairStats:          withRepair.RepairStats,
	}

	pre, preN := 0.0, 0
	for _, w := range res.Repair {
		if w.End <= cfg.BurstTime {
			pre += w.Success
			preN++
		}
	}
	if preN > 0 {
		res.PreBurstSuccess = pre / float64(preN)
	}
	recoveryTime := func(ws []events.Window) int64 {
		bar := cfg.RecoverFrac * res.PreBurstSuccess
		for _, w := range ws {
			if w.End > cfg.BurstTime && w.Success >= bar {
				return w.End - cfg.BurstTime
			}
		}
		return -1
	}
	res.RecoveryTime = recoveryTime(res.Repair)
	res.NoRepairRecoveryTime = recoveryTime(res.NoRepair)
	res.RepairFinal = finalSuccess(res.Repair)
	res.NoRepairFinal = finalSuccess(res.NoRepair)
	return res, nil
}

// finalSuccess averages the last two windows of a series.
func finalSuccess(ws []events.Window) float64 {
	if len(ws) == 0 {
		return 0
	}
	tail := ws
	if len(tail) > 2 {
		tail = tail[len(tail)-2:]
	}
	sum := 0.0
	for _, w := range tail {
		sum += w.Success
	}
	return sum / float64(len(tail))
}
