package churn

import (
	"reflect"
	"testing"
)

func TestTimelineConfigValidate(t *testing.T) {
	if err := DefaultTimelineConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*TimelineConfig){
		func(c *TimelineConfig) { c.Duration = 0 },
		func(c *TimelineConfig) { c.PoliteFrac = -0.1 },
		func(c *TimelineConfig) { c.PoliteFrac = 1.5 },
	}
	for i, mutate := range bad {
		c := DefaultTimelineConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
	if _, err := GenerateTimeline(TimelineConfig{Seed: 1, Duration: 100, PoliteFrac: -1}, 10); err == nil {
		t.Fatal("GenerateTimeline accepted a negative PoliteFrac")
	}
	if _, err := GenerateTimeline(DefaultTimelineConfig(1), -1); err == nil {
		t.Fatal("GenerateTimeline accepted a negative peer count")
	}
}

func TestGenerateTimelineShape(t *testing.T) {
	cfg := DefaultTimelineConfig(42)
	const n = 200
	tl, err := GenerateTimeline(cfg, n)
	if err != nil {
		t.Fatalf("GenerateTimeline: %v", err)
	}
	if len(tl.Initial) != n {
		t.Fatalf("Initial covers %d peers, want %d", len(tl.Initial), n)
	}
	if len(tl.Events) == 0 {
		t.Fatal("six simulated hours produced no session transitions")
	}
	state := make([]bool, n)
	copy(state, tl.Initial)
	for i, ev := range tl.Events {
		if ev.Time <= 0 || ev.Time > cfg.Duration {
			t.Fatalf("event %d at time %d outside (0, %d]", i, ev.Time, cfg.Duration)
		}
		if i > 0 {
			prev := tl.Events[i-1]
			if ev.Time < prev.Time || (ev.Time == prev.Time && ev.Peer <= prev.Peer) {
				t.Fatalf("events %d..%d out of (Time, Peer) order", i-1, i)
			}
		}
		// Transitions alternate: an arrival only for an offline peer, a
		// departure only for an online one.
		if state[ev.Peer] == ev.Up {
			t.Fatalf("event %d: peer %d transitioned to its current state", i, ev.Peer)
		}
		if ev.Up && ev.Polite {
			t.Fatalf("event %d: arrival marked polite", i)
		}
		state[ev.Peer] = ev.Up
	}
	// Some departures should be polite and some not, at PoliteFrac=0.67.
	polite, crashes := 0, 0
	for _, ev := range tl.Events {
		if ev.Up {
			continue
		}
		if ev.Polite {
			polite++
		} else {
			crashes++
		}
	}
	if polite == 0 || crashes == 0 {
		t.Fatalf("departure mix degenerate: %d polite, %d crashes", polite, crashes)
	}
}

func TestGenerateTimelineDeterministic(t *testing.T) {
	cfg := DefaultTimelineConfig(7)
	a, err := GenerateTimeline(cfg, 150)
	if err != nil {
		t.Fatalf("GenerateTimeline: %v", err)
	}
	b, err := GenerateTimeline(cfg, 150)
	if err != nil {
		t.Fatalf("GenerateTimeline: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed timelines differ")
	}
	cfg2 := cfg
	cfg2.Seed++
	c, err := GenerateTimeline(cfg2, 150)
	if err != nil {
		t.Fatalf("GenerateTimeline: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different-seed timelines coincide")
	}
}

func TestTimelineOnlineAt(t *testing.T) {
	tl := &Timeline{
		Initial: []bool{true, false, true},
		Events: []Event{
			{Time: 10, Peer: 1, Up: true},
			{Time: 20, Peer: 0, Up: false, Polite: true},
			{Time: 20, Peer: 2, Up: false},
		},
	}
	cases := []struct {
		t    int64
		want []bool
	}{
		{0, []bool{true, false, true}},
		{10, []bool{true, true, true}},
		{19, []bool{true, true, true}},
		{20, []bool{false, true, false}},
		{99, []bool{false, true, false}},
	}
	for _, c := range cases {
		if got := tl.OnlineAt(c.t); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("OnlineAt(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}
