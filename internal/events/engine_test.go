package events

import (
	"fmt"
	"testing"

	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

func mustEngine(t *testing.T, seed uint64, horizon int64) *Engine {
	t.Helper()
	e, err := New(seed, horizon)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(1, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := New(1, -5); err == nil {
		t.Fatal("negative horizon accepted")
	}
	e := mustEngine(t, 1, 100)
	if err := e.Schedule(10, PrioQuery, "nil-handler", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := mustEngine(t, 7, 1000)
	var got []string
	rec := func(label string) Handler {
		return func(int64, *rng.Source) error {
			got = append(got, label)
			return nil
		}
	}
	// Scheduled deliberately out of execution order: later times first,
	// same-time events across priorities, same-time same-priority pairs
	// relying on scheduling sequence.
	if err := e.Schedule(50, PrioQuery, "e", rec("t50/query")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(10, PrioWindow, "d", rec("t10/window")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(10, PrioChurn, "a", rec("t10/churn-first")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(10, PrioChurn, "b", rec("t10/churn-second")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(10, PrioMaint, "c", rec("t10/maint")); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"t10/churn-first", "t10/churn-second", "t10/maint", "t10/window", "t50/query"}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if e.now != 1000 {
		t.Fatalf("now after Run = %d, want horizon 1000", e.now)
	}
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// TestEngineStreamsIndependent is the determinism keystone: an event's rng
// stream is a pure function of (seed, name), so scheduling extra events
// around it never changes what it observes.
func TestEngineStreamsIndependent(t *testing.T) {
	draw := func(withNoise bool) uint64 {
		e := mustEngine(t, 99, 1000)
		var got uint64
		if withNoise {
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("noise/%d", i)
				if err := e.Schedule(int64(i+1), PrioChurn, name, func(_ int64, r *rng.Source) error {
					r.Uint64()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Schedule(500, PrioQuery, "probe", func(_ int64, r *rng.Source) error {
			got = r.Uint64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	bare, noisy := draw(false), draw(true)
	if bare != noisy {
		t.Fatalf("probe stream perturbed by unrelated events: %d vs %d", bare, noisy)
	}
	if bare == 0 {
		t.Fatal("probe never ran")
	}
}

func TestEngineSelfScheduling(t *testing.T) {
	e := mustEngine(t, 3, 100)
	ticks := 0
	var tick Handler
	tick = func(now int64, _ *rng.Source) error {
		ticks++
		return e.Schedule(now+10, PrioMaint, fmt.Sprintf("tick/%d", ticks), tick)
	}
	if err := e.Schedule(10, PrioMaint, "tick/0", tick); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// t=10,20,...,100 execute; the one scheduled for 110 is shed.
	if ticks != 10 {
		t.Fatalf("ticked %d times, want 10", ticks)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 shed event", e.Pending())
	}
}

func TestEngineRejectsSchedulingIntoPast(t *testing.T) {
	e := mustEngine(t, 3, 100)
	var insideErr error
	if err := e.Schedule(50, PrioQuery, "late", func(now int64, _ *rng.Source) error {
		insideErr = e.Schedule(now-1, PrioQuery, "past", func(int64, *rng.Source) error { return nil })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if insideErr == nil {
		t.Fatal("scheduling into the past accepted")
	}
}

func TestEngineHandlerErrorAborts(t *testing.T) {
	e := mustEngine(t, 3, 100)
	ran := false
	if err := e.Schedule(10, PrioChurn, "boom", func(int64, *rng.Source) error {
		return fmt.Errorf("synthetic failure")
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(20, PrioChurn, "after", func(int64, *rng.Source) error {
		ran = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("handler error swallowed")
	}
	if ran {
		t.Fatal("events after a failed handler still executed")
	}
}

func TestEngineRunReentry(t *testing.T) {
	e := mustEngine(t, 3, 100)
	var reentry error
	if err := e.Schedule(10, PrioChurn, "re", func(int64, *rng.Source) error {
		reentry = e.Run()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reentry == nil {
		t.Fatal("re-entrant Run accepted")
	}
}

func TestEngineInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	e := mustEngine(t, 3, 100)
	e.Instrument(reg)
	for i := 0; i < 4; i++ {
		at := int64(10 * (i + 1))
		if err := e.Schedule(at, PrioQuery, fmt.Sprintf("q/%d", i), func(int64, *rng.Source) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := map[string]int64{}
	for _, m := range reg.Snapshot().Metrics {
		snap[m.Name] = m.Value
	}
	if snap["events_scheduled_total"] != 4 || snap["events_executed_total"] != 4 {
		t.Fatalf("counters = %v, want 4 scheduled and 4 executed", snap)
	}
	if snap["events_queue_depth"] != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", snap["events_queue_depth"])
	}
}
