package experiments

import "testing"

// TestChurnRepairQualitative pins the experiment's headline claims at tiny
// scale: churn without maintenance erodes flood success well below the
// static overlay, and the self-healing stack recovers most of that gap.
// The measured tiny-scale numbers are ~1.0 static, ~0.5 without repair,
// ~1.0 with repair; the thresholds leave wide margins.
func TestChurnRepairQualitative(t *testing.T) {
	res := memoRun(t, entry(t, "churn-repair"), 8, false).res.(*ChurnRepairResult)
	if res.Events == 0 {
		t.Fatal("timeline produced no churn events")
	}
	if want := int(2 * 3600 / 600); len(res.NoRepair) != want || len(res.Repair) != want {
		t.Fatalf("sample counts %d/%d, want %d", len(res.NoRepair), len(res.Repair), want)
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
	first, last := res.NoRepair[0], res.NoRepair[len(res.NoRepair)-1]
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
	st := res.RepairStats
	if st.FailuresDetected == 0 || st.RepairSuccesses == 0 || st.ByesReceived == 0 {
		t.Fatalf("repair scenario exercised no maintenance machinery: %+v", st)
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
