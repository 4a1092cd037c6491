// Package churn models peer session dynamics — the defining property of
// the systems the paper studies. Peers alternate between online and offline
// sessions (exponential durations, as measured in Gnutella); at sampling
// points a TTL-bounded flood over the *currently online* subgraph measures
// search success. This package holds the model (Config, Sample, Result,
// timelines, liveness masks); the graph-level run itself is
// events.RunGraphChurn, on the one discrete-event engine.
//
// The experiment built on this package shows that churn amplifies the
// paper's finding: under uniform replication a query survives any single
// departure, but under the measured Zipf placement most objects have one
// copy, so their availability tracks a single peer's uptime.
package churn

import (
	"fmt"
	"math"

	"querycentric/internal/rng"
)

// Config shapes a churn simulation.
type Config struct {
	Seed uint64
	// MeanOnline and MeanOffline are the exponential session means in
	// seconds (Gnutella measurements put median online sessions at tens of
	// minutes).
	MeanOnline  float64
	MeanOffline float64
	// Duration is the simulated horizon in seconds.
	Duration int64
	// SampleEvery is the measurement period in seconds.
	SampleEvery int64
	// TTL bounds the measurement floods.
	TTL int
	// QueriesPerSample is how many (origin, object) probes each sample
	// takes.
	QueriesPerSample int
}

// DefaultConfig models ~50-minute online sessions with ~70% availability.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		MeanOnline:       3000,
		MeanOffline:      1200,
		Duration:         6 * 3600,
		SampleEvery:      600,
		TTL:              4,
		QueriesPerSample: 100,
	}
}

// Validate rejects configurations that would panic or loop forever: the
// session means must be finite (MeanOnline positive, MeanOffline
// non-negative) and the schedule must make progress (positive Duration and
// SampleEvery, TTL ≥ 1, at least one query per sample).
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.MeanOnline) || math.IsInf(c.MeanOnline, 0) || c.MeanOnline <= 0:
		return fmt.Errorf("churn: MeanOnline must be a positive finite duration, got %v", c.MeanOnline)
	case math.IsNaN(c.MeanOffline) || math.IsInf(c.MeanOffline, 0) || c.MeanOffline < 0:
		return fmt.Errorf("churn: MeanOffline must be a non-negative finite duration, got %v", c.MeanOffline)
	case c.Duration <= 0:
		return fmt.Errorf("churn: Duration must be positive, got %d", c.Duration)
	case c.SampleEvery <= 0:
		return fmt.Errorf("churn: SampleEvery must be positive, got %d", c.SampleEvery)
	case c.TTL < 1:
		return fmt.Errorf("churn: TTL must be at least 1, got %d", c.TTL)
	case c.QueriesPerSample < 1:
		return fmt.Errorf("churn: QueriesPerSample must be at least 1, got %d", c.QueriesPerSample)
	}
	return nil
}

// OnlineMask samples each of n peers' online state from the stationary
// distribution of the (meanOnline, meanOffline) session process — the same
// distribution events.RunGraphChurn uses to initialize its session state
// machines. Fault
// planes (internal/faults) install the result as a liveness mask, so
// crawls and floods observe the session dynamics this package models.
func OnlineMask(seed uint64, n int, meanOnline, meanOffline float64) ([]bool, error) {
	if n < 0 {
		return nil, fmt.Errorf("churn: negative peer count %d", n)
	}
	if math.IsNaN(meanOnline) || math.IsInf(meanOnline, 0) || meanOnline <= 0 {
		return nil, fmt.Errorf("churn: MeanOnline must be a positive finite duration, got %v", meanOnline)
	}
	if math.IsNaN(meanOffline) || math.IsInf(meanOffline, 0) || meanOffline < 0 {
		return nil, fmt.Errorf("churn: MeanOffline must be a non-negative finite duration, got %v", meanOffline)
	}
	stationary := meanOnline / (meanOnline + meanOffline)
	r := rng.NewNamed(seed, "churn/liveness")
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = r.Bool(stationary)
	}
	return mask, nil
}

// Sample is one measurement point.
type Sample struct {
	Time        int64
	OnlineFrac  float64
	SuccessRate float64
}

// Result is a full churn run (see events.RunGraphChurn).
type Result struct {
	Samples []Sample
	// MeanSuccess averages the per-sample success rates.
	MeanSuccess float64
	// MeanOnline averages the online fraction (sanity: should approach
	// MeanOnline/(MeanOnline+MeanOffline)).
	MeanOnline float64
}
