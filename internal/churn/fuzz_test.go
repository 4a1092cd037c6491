package churn

import (
	"math"
	"testing"
)

// FuzzTimelineConfig asserts GenerateTimeline's contract over arbitrary
// configurations: Validate-rejected configs must error (never panic), and
// accepted ones must produce a canonical timeline — events strictly ordered
// by (Time, Peer), every transition inside (0, Duration], per-peer
// alternation consistent with the initial state, and OnlineAt agreeing with
// a full replay.
func FuzzTimelineConfig(f *testing.F) {
	d := DefaultTimelineConfig(42)
	f.Add(d.Seed, d.Duration, d.PoliteFrac, 16)
	f.Add(uint64(0), int64(1), 0.0, 0)          // minimal viable
	f.Add(uint64(1), int64(3600), 1.0, 3)       // all-polite
	f.Add(uint64(7), int64(-100), 0.5, 4)       // negative duration
	f.Add(uint64(7), int64(0), 0.5, 4)          // invalid duration
	f.Add(uint64(7), int64(100), 1.5, 4)        // invalid frac
	f.Add(uint64(7), int64(100), math.NaN(), 4) // NaN frac
	f.Add(uint64(7), int64(100), 0.5, -2)       // negative population
	f.Fuzz(func(t *testing.T, seed uint64, duration int64, polite float64, n int) {
		// Bound the work, not the validity: a peer emits at most one event
		// per simulated second, so capping Duration and n keeps worst-case
		// event counts small while still exercising every Validate branch.
		if duration > 1<<15 {
			duration %= 1 << 15
		}
		if n > 128 {
			n %= 129
		}
		cfg := TimelineConfig{Seed: seed, Duration: duration, PoliteFrac: polite}
		tl, err := GenerateTimeline(cfg, n)
		if cfg.Validate() != nil || n < 0 {
			if err == nil {
				t.Fatalf("invalid input accepted: %+v n=%d", cfg, n)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid config rejected: %v (%+v n=%d)", err, cfg, n)
		}
		if len(tl.Initial) != n {
			t.Fatalf("Initial covers %d peers, want %d", len(tl.Initial), n)
		}
		state := append([]bool(nil), tl.Initial...)
		for i, ev := range tl.Events {
			if ev.Time < 1 || ev.Time > cfg.Duration {
				t.Fatalf("event %d at t=%d outside (0,%d]", i, ev.Time, cfg.Duration)
			}
			if ev.Peer < 0 || int(ev.Peer) >= n {
				t.Fatalf("event %d for peer %d outside population %d", i, ev.Peer, n)
			}
			if i > 0 {
				prev := tl.Events[i-1]
				if ev.Time < prev.Time || (ev.Time == prev.Time && ev.Peer <= prev.Peer) {
					t.Fatalf("events %d,%d out of canonical (Time,Peer) order: %+v then %+v", i-1, i, prev, ev)
				}
			}
			if ev.Up == state[ev.Peer] {
				t.Fatalf("event %d does not alternate: peer %d already %v", i, ev.Peer, ev.Up)
			}
			if ev.Up && ev.Polite {
				t.Fatalf("event %d: arrival marked polite", i)
			}
			state[ev.Peer] = ev.Up
		}
		final := tl.OnlineAt(cfg.Duration)
		for v := 0; v < n; v++ {
			if final[v] != state[v] {
				t.Fatalf("OnlineAt(%d) disagrees with replay at peer %d", cfg.Duration, v)
			}
		}
		// Determinism: a second generation is identical.
		again, err := GenerateTimeline(cfg, n)
		if err != nil {
			t.Fatalf("regeneration failed: %v", err)
		}
		if len(again.Events) != len(tl.Events) {
			t.Fatalf("regeneration produced %d events, want %d", len(again.Events), len(tl.Events))
		}
		for i := range tl.Events {
			if again.Events[i] != tl.Events[i] {
				t.Fatalf("regeneration diverged at event %d", i)
			}
		}
	})
}
