package experiments

import (
	"testing"
)

func TestSaturationConfigValidate(t *testing.T) {
	if err := DefaultSaturationConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*SaturationConfig){
		func(c *SaturationConfig) { c.Loads = []int{40} },
		func(c *SaturationConfig) { c.Loads = []int{40, 40} },
		func(c *SaturationConfig) { c.Loads = []int{120, 40} },
		func(c *SaturationConfig) { c.Loads[0] = 0 },
		func(c *SaturationConfig) { c.Capacity.ServiceCostMs = 0 },
		func(c *SaturationConfig) { c.Capacity.QueueDepth = 0 },
		func(c *SaturationConfig) { c.Arms = []string{"droptail"} },
		func(c *SaturationConfig) { c.Capacity.CommitEvery = -1 },
	}
	for i, mutate := range bad {
		c := DefaultSaturationConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
}

// TestSaturationQualitative pins the acceptance-criteria shape of the
// sweep at tiny scale: the unbounded arm's per-query message cost grows
// monotonically with offered load (super-linear total cost) and its
// backlog explodes, every bounded arm stays within queue-capacity bounds,
// and TTL-aware shedding retains at least twice drop-tail's success at
// the highest swept load.
func TestSaturationQualitative(t *testing.T) {
	res := memoRun(t, entry(t, "saturation"), 8, false).res.(*SaturationResult)
	byArm := map[string]SaturationArm{}
	for _, a := range res.Arms {
		byArm[a.Arm] = a
		if len(a.Points) != len(DefaultSaturationConfig(42).Loads) {
			t.Fatalf("arm %s: %d points", a.Arm, len(a.Points))
		}
	}
	for _, arm := range []string{"unbounded", "drop-tail", "red", "ttl"} {
		if _, ok := byArm[arm]; !ok {
			t.Fatalf("arm %s missing from sweep", arm)
		}
	}

	// Unbounded: cost per query grows with load; the backlog explodes far
	// past the bounded arms' queue bound; the flash is fatal at peak.
	ub := byArm["unbounded"].Points
	for i := 1; i < len(ub); i++ {
		if ub[i].MsgPerQuery <= ub[i-1].MsgPerQuery {
			t.Errorf("unbounded msg/query not growing: load %d %.1f -> load %d %.1f",
				ub[i-1].Load, ub[i-1].MsgPerQuery, ub[i].Load, ub[i].MsgPerQuery)
		}
	}
	ubPeak := ub[len(ub)-1]
	if ubPeak.MsgPerQuery < 1.5*ub[0].MsgPerQuery {
		t.Errorf("unbounded cost not super-linear: %.1f at base vs %.1f at peak",
			ub[0].MsgPerQuery, ubPeak.MsgPerQuery)
	}
	if ubPeak.FlashSuccess != 0 {
		t.Errorf("unbounded flash success at peak = %.4f, want collapse to 0", ubPeak.FlashSuccess)
	}

	// Bounded arms: committed depth stays within the queue bound plus the
	// optimistic-admission overshoot (one sub-batch of CommitEvery floods
	// can each land a handful of copies per queue before the fold; the
	// TTL-aware express lane doubles the bound). The unbounded arm's
	// backlog must dwarf all of them.
	cfg := DefaultSaturationConfig(42)
	overshoot := int64(cfg.Capacity.CommitEvery) * 4
	for _, arm := range []string{"drop-tail", "red"} {
		for _, p := range byArm[arm].Points {
			if p.MaxDepth > int64(cfg.Capacity.QueueDepth)+overshoot {
				t.Errorf("%s max depth %d exceeds bound %d+%d", arm, p.MaxDepth, cfg.Capacity.QueueDepth, overshoot)
			}
		}
	}
	for _, p := range byArm["ttl"].Points {
		if p.MaxDepth > 2*int64(cfg.Capacity.QueueDepth)+overshoot {
			t.Errorf("ttl max depth %d exceeds two-lane bound %d+%d", p.MaxDepth, 2*cfg.Capacity.QueueDepth, overshoot)
		}
	}
	for _, arm := range []string{"drop-tail", "red", "ttl"} {
		peak := byArm[arm].Points[len(byArm[arm].Points)-1]
		if peak.MaxDepth*8 > ubPeak.MaxDepth {
			t.Errorf("%s peak depth %d not dwarfed by unbounded %d", arm, peak.MaxDepth, ubPeak.MaxDepth)
		}
		if peak.ShedFrac == 0 {
			t.Errorf("%s sheds nothing at peak load", arm)
		}
	}

	// TTL-aware beats drop-tail at the highest swept load: at least 2x on
	// both whole-run and flash-window success, with breakers engaged.
	dtPeak := byArm["drop-tail"].Points[len(byArm["drop-tail"].Points)-1]
	ttlPeak := byArm["ttl"].Points[len(byArm["ttl"].Points)-1]
	if ttlPeak.Success < 2*dtPeak.Success {
		t.Errorf("ttl peak success %.4f < 2x drop-tail %.4f", ttlPeak.Success, dtPeak.Success)
	}
	if ttlPeak.FlashSuccess < 2*dtPeak.FlashSuccess {
		t.Errorf("ttl peak flash success %.4f < 2x drop-tail %.4f", ttlPeak.FlashSuccess, dtPeak.FlashSuccess)
	}
	if ttlPeak.BreakerOpens == 0 {
		t.Error("ttl arm never opened a breaker at peak load")
	}
	if dtPeak.BreakerOpens != 0 {
		t.Errorf("drop-tail arm opened %d breakers; breakers ride the ttl arm only", dtPeak.BreakerOpens)
	}
}

// TestSaturationArmFilter checks that cfg.Arms restricts the sweep.
func TestSaturationArmFilter(t *testing.T) {
	e := NewEnv(ScaleTiny, 42)
	cfg := DefaultSaturationConfig(e.Seed)
	cfg.Loads = []int{20, 60}
	cfg.Arms = []string{"unbounded", "ttl"}
	res, err := SaturationWith(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 || res.Arms[0].Arm != "unbounded" || res.Arms[1].Arm != "ttl" {
		t.Fatalf("arm filter broken: %+v", res.Arms)
	}
	if res.Peak("drop-tail") != nil {
		t.Error("Peak returned a point for an arm not swept")
	}
	if p := res.Peak("ttl"); p == nil || p.Load != 60 {
		t.Errorf("Peak(ttl) = %+v, want load 60", p)
	}
}
