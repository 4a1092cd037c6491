package experiments

import "testing"

// TestChurnRepairQualitative pins the experiment's headline claims at tiny
// scale: churn without maintenance erodes flood success well below the
// static overlay, and the self-healing stack recovers most of that gap.
// The measured tiny-scale numbers are ~1.0 static, ~0.5 without repair,
// ~1.0 with repair; the thresholds leave wide margins.
func TestChurnRepairQualitative(t *testing.T) {
	res := memoRun(t, entry(t, "churn-repair"), 8, false).res.(*ChurnRepairResult)
	if res.NoRepair.ChurnEvents == 0 {
		t.Fatal("timeline produced no churn events")
	}
	noRepair, repair := res.NoRepair.Windows, res.Repair.Windows
	if want := int(2 * 3600 / 600); len(noRepair) != want || len(repair) != want {
		t.Fatalf("window counts %d/%d, want %d", len(noRepair), len(repair), want)
	}
	if res.StaticSuccess < 0.9 {
		t.Fatalf("static baseline success %.3f; the anchor itself is broken", res.StaticSuccess)
	}
	// Churn with no maintenance must hurt, measurably.
	if res.NoRepairMean > res.StaticSuccess-0.15 {
		t.Fatalf("no-repair mean %.3f too close to static %.3f: churn did not degrade search",
			res.NoRepairMean, res.StaticSuccess)
	}
	// And the damage compounds: the overlay is worse at the end than at
	// the start.
	first, last := noRepair[0], noRepair[len(noRepair)-1]
	if last.Success >= first.Success {
		t.Fatalf("no-repair success did not erode over time: %.3f -> %.3f",
			first.Success, last.Success)
	}
	if last.MeanDegree >= first.MeanDegree {
		t.Fatalf("no-repair degree did not erode over time: %.2f -> %.2f",
			first.MeanDegree, last.MeanDegree)
	}
	// Maintenance recovers most of the gap.
	if res.RecoveredFrac < 0.7 {
		t.Fatalf("repair recovered only %.2f of the gap (static %.3f, no-repair %.3f, repair %.3f)",
			res.RecoveredFrac, res.StaticSuccess, res.NoRepairMean, res.RepairMean)
	}
	st := res.Repair.RepairStats
	if st.FailuresDetected == 0 || st.RepairSuccesses == 0 || st.ByesReceived == 0 {
		t.Fatalf("repair scenario exercised no maintenance machinery: %+v", st)
	}
}

// TestChurnRepairArmsShareOneTimeline pins that the two churn arms replay
// the same session history — same transitions, same population online at
// every window close — and that the anchor replays none.
func TestChurnRepairArmsShareOneTimeline(t *testing.T) {
	res := memoRun(t, entry(t, "churn-repair"), 8, false).res.(*ChurnRepairResult)
	if res.NoRepair.ChurnEvents != res.Repair.ChurnEvents {
		t.Fatalf("churn arms replayed %d and %d events", res.NoRepair.ChurnEvents, res.Repair.ChurnEvents)
	}
	for i, w := range res.NoRepair.Windows {
		if rw := res.Repair.Windows[i]; rw.OnlineFrac != w.OnlineFrac {
			t.Errorf("window %d: online %.4f without repair, %.4f with", i, w.OnlineFrac, rw.OnlineFrac)
		}
	}
	if res.Static.ChurnEvents != 0 {
		t.Fatalf("static anchor replayed %d churn events", res.Static.ChurnEvents)
	}
	for i, w := range res.Static.Windows {
		if w.OnlineFrac != 1 {
			t.Errorf("static window %d: online %.4f, want 1", i, w.OnlineFrac)
		}
	}
}

func TestChurnRepairConfigValidate(t *testing.T) {
	if err := DefaultChurnRepairConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*ChurnRepairConfig){
		func(c *ChurnRepairConfig) { c.Timeline.PoliteFrac = -1 },
		func(c *ChurnRepairConfig) { c.Repair.PingInterval = 0 },
	}
	for i, mutate := range bad {
		c := DefaultChurnRepairConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
	e := NewEnv(ScaleTiny, 42)
	cfg := DefaultChurnRepairConfig(e.Seed)
	cfg.Timeline.Duration = -5
	if _, err := ChurnRepairWith(e, cfg); err == nil {
		t.Fatal("ChurnRepairWith accepted a negative duration")
	}
}
