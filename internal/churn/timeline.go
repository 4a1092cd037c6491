package churn

import (
	"fmt"
	"math"
	"sort"

	"querycentric/internal/rng"
)

// This file turns the package's session model into an *event timeline* —
// an explicit, replayable sequence of arrivals and departures — instead of
// the instantaneous liveness masks OnlineMask produces. A timeline is what
// an overlay-maintenance layer needs: topology mutation happens at event
// boundaries (a departing peer sends Bye or just vanishes; an arriving
// peer bootstraps connections), not at sampling instants.

// TimelineConfig shapes a generated churn timeline.
type TimelineConfig struct {
	Seed uint64
	// Duration is the simulated horizon in seconds; events are generated
	// in (0, Duration].
	Duration int64
	// PoliteFrac is the probability a departure is announced with a Bye
	// rather than an abrupt crash. Gnutella measurements attribute most
	// session ends to user shutdowns, so the default leans polite.
	PoliteFrac float64
}

// DefaultTimelineConfig runs the session model (MeanOnline, MeanOffline)
// for six hours with two-thirds of departures announced.
func DefaultTimelineConfig(seed uint64) TimelineConfig {
	return TimelineConfig{
		Seed:       seed,
		Duration:   6 * 3600,
		PoliteFrac: 0.67,
	}
}

// Validate rejects timelines that would panic or never terminate.
func (c TimelineConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("churn: Duration must be positive, got %d", c.Duration)
	case math.IsNaN(c.PoliteFrac) || c.PoliteFrac < 0 || c.PoliteFrac > 1:
		return fmt.Errorf("churn: PoliteFrac must be in [0,1], got %v", c.PoliteFrac)
	}
	return nil
}

// Event is one session transition. Polite is meaningful only on
// departures (Up == false): it marks a Bye-announced shutdown as opposed
// to a crash the rest of the overlay must detect.
type Event struct {
	Time   int64
	Peer   int32
	Up     bool
	Polite bool
}

// Timeline is a replayable churn history: the initial liveness state plus
// every transition in time order.
type Timeline struct {
	Initial []bool
	Events  []Event
}

// OnlineAt replays the timeline up to and including time t, returning the
// liveness mask at that instant.
func (tl *Timeline) OnlineAt(t int64) []bool {
	mask := make([]bool, len(tl.Initial))
	copy(mask, tl.Initial)
	for _, ev := range tl.Events {
		if ev.Time > t {
			break
		}
		mask[ev.Peer] = ev.Up
	}
	return mask
}

// GenerateTimeline builds a deterministic churn timeline for n peers.
// Each peer evolves on its own derived stream, so the timeline is
// invariant to peer-iteration order; per-peer session boundaries are
// strictly increasing, so (Time, Peer) is a unique sort key and the final
// ordering is canonical.
func GenerateTimeline(cfg TimelineConfig, n int) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("churn: negative peer count %d", n)
	}
	base := rng.NewNamed(cfg.Seed, "churn/timeline")
	stationary := MeanOnline / (MeanOnline + MeanOffline)
	tl := &Timeline{Initial: make([]bool, n)}
	for v := 0; v < n; v++ {
		r := base.Derive(fmt.Sprintf("peer/%d", v))
		up := r.Bool(stationary)
		tl.Initial[v] = up
		t := int64(0)
		for {
			mean := MeanOffline
			if up {
				mean = MeanOnline
			}
			t += 1 + int64(r.ExpFloat64()*mean)
			if t > cfg.Duration {
				break
			}
			up = !up
			ev := Event{Time: t, Peer: int32(v), Up: up}
			if !up {
				ev.Polite = r.Bool(cfg.PoliteFrac)
			}
			tl.Events = append(tl.Events, ev)
		}
	}
	sort.Slice(tl.Events, func(i, j int) bool {
		a, b := tl.Events[i], tl.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Peer < b.Peer
	})
	return tl, nil
}
