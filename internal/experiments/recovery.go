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
	// Repair shapes the maintenance loop of the repair arm. Its Repair flag
	// is overridden per arm.
	Repair gnet.RepairConfig
}

const (
	// recoveryDuration is the event-engine horizon.
	recoveryDuration int64 = 2 * 3600
	// recoverFrac defines "recovered": windowed success at or above this
	// fraction of the pre-burst mean.
	recoverFrac float64 = 0.95
)

// The maintenance experiments (recovery, churn-repair) share one scenario
// shape: ten-minute metrics windows of known-item floods at TTL 3, each
// window's queries spread over four query events.
const (
	repairWindow           int64 = 600
	repairBatchesPerWindow       = 4
	repairTTL                    = 3
)

// repairScenario is one arm of a maintenance experiment: the shared
// window shape over duration seconds, with queries floods per window and
// rp's maintenance loop switched on or off by repair. Callers add the
// disturbance — a fault burst or a churn timeline.
func repairScenario(seed uint64, kind events.Kind, duration int64, queries int, rp gnet.RepairConfig, repair bool, prefix string) events.ScenarioConfig {
	rp.Repair = repair
	return events.ScenarioConfig{
		Kind:             kind,
		Seed:             seed,
		Duration:         duration,
		Window:           repairWindow,
		QueriesPerWindow: queries,
		BatchesPerWindow: repairBatchesPerWindow,
		TTL:              repairTTL,
		Repair:           rp,
		SeriesPrefix:     prefix,
	}
}

// DefaultRecoveryConfig crashes 30% of the population one third into the
// two-hour run, with one-minute ping rounds (ten-minute windows and the
// 0.95x-of-baseline recovery bar are the constants above).
func DefaultRecoveryConfig(seed uint64) RecoveryConfig {
	rp := gnet.DefaultRepairConfig(seed)
	rp.PingInterval = 60
	return RecoveryConfig{
		BurstTime: 2400,
		BurstFrac: 0.3,
		Repair:    rp,
	}
}

// Validate rejects schedules that cannot run.
func (c RecoveryConfig) Validate() error {
	if err := (faults.Burst{Time: c.BurstTime, Frac: c.BurstFrac}).Validate(); err != nil {
		return err
	}
	if c.BurstTime >= recoveryDuration {
		return fmt.Errorf("experiments: recovery burst at %d is outside the %d-second run", c.BurstTime, recoveryDuration)
	}
	return c.Repair.Validate()
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
	// windowed success first reaches recoverFrac of the pre-burst mean
	// again (-1: never within the horizon). NoRepairRecoveryTime is the
	// same bar for the unmaintained arm.
	RecoveryTime         int64 `json:"recovery_time_s"`
	NoRepairRecoveryTime int64 `json:"no_repair_recovery_time_s"`
	// RepairStats are the repair arm's maintenance counters.
	RepairStats gnet.RepairStats `json:"repair_stats"`
}

// RecoveryWith runs the recovery comparison on the discrete-event engine.
// Each arm replays the identical event schedule (same burst victims, same
// query streams) against a fresh overlay; only the Repair flag differs, so
// the two curves isolate what maintenance buys.
func RecoveryWith(e *Env, cfg RecoveryConfig) (*RecoveryResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The measurement flood volume per window scales with the
	// environment's SimTrials.
	queries := e.queriesPerSample(40, 200)

	run := func(repair bool, prefix string) (*events.ScenarioResult, error) {
		scfg := repairScenario(e.Seed, events.FaultRecovery, recoveryDuration, queries, cfg.Repair, repair, prefix)
		scfg.Bursts = []faults.Burst{{Time: cfg.BurstTime, Frac: cfg.BurstFrac}}
		return e.runScenario(scfg)
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
		TTL:                  repairTTL,
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
		bar := recoverFrac * res.PreBurstSuccess
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
	return meanWindowSuccess(ws[max(len(ws)-2, 0):])
}

// meanWindowSuccess averages a window series' success (0 when empty).
func meanWindowSuccess(ws []events.Window) float64 {
	if len(ws) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range ws {
		sum += w.Success
	}
	return sum / float64(len(ws))
}
