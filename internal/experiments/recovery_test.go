package experiments

import (
	"encoding/json"
	"testing"

	"querycentric/internal/obs"
)

func TestRecoveryConfigValidate(t *testing.T) {
	if err := DefaultRecoveryConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*RecoveryConfig){
		func(c *RecoveryConfig) { c.BurstTime = 0 },
		func(c *RecoveryConfig) { c.BurstTime = recoveryDuration },
		func(c *RecoveryConfig) { c.BurstFrac = 1.5 },
		func(c *RecoveryConfig) { c.Repair.PingTimeout = 0 },
	}
	for i, mutate := range bad {
		c := DefaultRecoveryConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
}

// TestRecoveryQualitative asserts the acceptance-criteria shape of the
// recovery curve at tiny scale: the burst dents success, the maintained
// overlay recovers to near its pre-burst baseline, the unmaintained one
// ends no better than the maintained one and leaves its ghost edges
// undisturbed.
func TestRecoveryQualitative(t *testing.T) {
	e := NewEnv(ScaleTiny, 42)
	e.Windows = obs.NewWindowLog()
	cfg := DefaultRecoveryConfig(e.Seed)
	res, err := RecoveryWith(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := int(recoveryDuration / recoveryWindow); len(res.Repair) != n || len(res.NoRepair) != n {
		t.Fatalf("got %d/%d windows, want %d/%d", len(res.Repair), len(res.NoRepair), n, n)
	}
	if res.PreBurstSuccess < 0.5 {
		t.Fatalf("pre-burst success %.3f implausibly low", res.PreBurstSuccess)
	}
	// The burst takes ~30% of the population down and they stay down.
	for _, w := range res.Repair[cfg.BurstTime/recoveryWindow:] {
		if w.OnlineFrac > 0.75 || w.OnlineFrac < 0.6 {
			t.Fatalf("post-burst online frac %.3f, want ~0.7", w.OnlineFrac)
		}
	}
	if res.RecoveryTime < 0 {
		t.Fatalf("repair arm never recovered to %.2f of baseline: %+v", recoverFrac, res.Repair)
	}
	if res.RepairFinal < res.NoRepairFinal {
		t.Fatalf("repair arm ended at %.3f, below no-repair %.3f", res.RepairFinal, res.NoRepairFinal)
	}
	if res.RepairFinal < 0.9*res.PreBurstSuccess {
		t.Fatalf("repaired success %.3f never approached pre-burst %.3f", res.RepairFinal, res.PreBurstSuccess)
	}
	if res.RepairStats.RepairSuccesses == 0 {
		t.Fatal("repair arm recorded no successful repairs")
	}
	// Both arms' windowed series streamed into the environment's log.
	names := map[string]bool{}
	for _, s := range e.Windows.Snapshot() {
		names[s.Name] = true
	}
	for _, want := range []string{"recovery_repair_success", "recovery_norepair_success",
		"recovery_repair_partitions", "recovery_norepair_online_frac"} {
		if !names[want] {
			t.Fatalf("window series %q missing from log (have %v)", want, names)
		}
	}

	// The default configuration — what `qc-sim -mode recovery` runs — must
	// likewise end with the repaired overlay no worse than the unrepaired.
	t.Run("default config", func(t *testing.T) {
		res := memoRun(t, entry(t, "recovery"), 8, false).res.(*RecoveryResult)
		if len(res.Repair) == 0 || len(res.NoRepair) == 0 {
			t.Fatalf("got %d/%d windows, want both arms", len(res.Repair), len(res.NoRepair))
		}
		if res.RepairFinal < res.NoRepairFinal {
			t.Fatalf("repair arm ended at %.3f, below no-repair %.3f", res.RepairFinal, res.NoRepairFinal)
		}
	})
}

// TestRecoveryWindowWorkerInvariance is the event-engine half of the
// determinism gate: the full windowed output — including the obs window
// series — must be byte-identical at workers=1 and workers=8.
func TestRecoveryWindowWorkerInvariance(t *testing.T) {
	marshal := func(workers int) []byte {
		e := NewEnv(ScaleTiny, 42)
		e.Workers = workers
		e.Windows = obs.NewWindowLog()
		res, err := RecoveryWith(e, DefaultRecoveryConfig(e.Seed))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(map[string]any{
			"result": res,
			"series": e.Windows.Snapshot(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq, par := marshal(1), marshal(8)
	if string(seq) != string(par) {
		t.Fatalf("recovery windows diverged between workers=1 and workers=8:\n%s\nvs\n%s", seq, par)
	}
}
