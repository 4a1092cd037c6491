// Package churn models peer session dynamics — the defining property of
// the systems the paper studies. Peers alternate between online and offline
// sessions (exponential durations, as measured in Gnutella); at sampling
// points a TTL-bounded flood over the *currently online* subgraph measures
// search success. This package holds the model (Config, Sample, Result,
// liveness masks) and its one session generator, GenerateTimeline; every
// run that needs sessions over time — the graph-level events.RunGraphChurn
// and the maintained overlays of the event scenarios — replays a timeline
// from it on the one discrete-event engine.
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

// MeanOnline and MeanOffline are the exponential session means in seconds
// (Gnutella measurements put median online sessions at tens of minutes):
// ~50-minute online sessions with ~70% availability.
const (
	MeanOnline  float64 = 3000
	MeanOffline float64 = 1200
)

// SampleEvery is the measurement period of a churn run in seconds.
const SampleEvery int64 = 600

// TTL bounds a churn run's measurement floods.
const TTL = 4

// Config shapes a churn simulation.
type Config struct {
	Seed uint64
	// Duration is the simulated horizon in seconds.
	Duration int64
	// QueriesPerSample is how many (origin, object) probes each sample
	// takes.
	QueriesPerSample int
}

// DefaultConfig runs six hours of the session model.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		Duration:         6 * 3600,
		QueriesPerSample: 100,
	}
}

// Validate rejects configurations that would not make progress: a
// positive Duration and at least one query per sample.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("churn: Duration must be positive, got %d", c.Duration)
	case c.QueriesPerSample < 1:
		return fmt.Errorf("churn: QueriesPerSample must be at least 1, got %d", c.QueriesPerSample)
	}
	return nil
}

// OnlineMask samples each of n peers' online state from the stationary
// distribution of the (meanOnline, meanOffline) session process — the same
// distribution GenerateTimeline draws a timeline's initial state from. Fault
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
	// MeanOnline averages the online fraction (sanity: should approach the
	// constant MeanOnline/(MeanOnline+MeanOffline)).
	MeanOnline float64
}
