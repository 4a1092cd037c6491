package experiments

import (
	"encoding/json"
	"testing"

	"querycentric/internal/obs"
)

// TestQueryCentric pins the experiment's headline claims at tiny scale:
// the adaptive overlay recovers at least twice the static TTL-3 success at
// equal or lower message cost, QRP trims messages without moving success,
// and Chord resolves everything.
func TestQueryCentric(t *testing.T) {
	e := NewEnv(ScaleTiny, 42)
	res, err := QueryCentricWith(e, DefaultQueryCentricConfig())
	if err != nil {
		t.Fatal(err)
	}
	static, qrp := res.Arm("static-flood"), res.Arm("qrp")
	adaptiveArm, chordArm := res.Arm("adaptive"), res.Arm("chord")
	if static == nil || qrp == nil || adaptiveArm == nil || chordArm == nil || res.Arm("shortcuts") == nil {
		t.Fatalf("missing arms: %+v", res.Arms)
	}
	if static.Success <= 0.05 || static.Success >= 0.6 {
		t.Fatalf("static baseline %v outside the mismatch regime", static.Success)
	}
	if res.AdaptiveGain < 2 {
		t.Errorf("adaptive gain %.2f below the 2x recovery bar (adaptive %v vs static %v)",
			res.AdaptiveGain, adaptiveArm.Success, static.Success)
	}
	if adaptiveArm.MeanMessages > static.MeanMessages {
		t.Errorf("adaptive cost %v above static %v", adaptiveArm.MeanMessages, static.MeanMessages)
	}
	if adaptiveArm.Rewires == 0 || adaptiveArm.Replicas == 0 {
		t.Errorf("adaptive arm did not adapt: %+v", adaptiveArm)
	}
	if qrp.Success != static.Success {
		t.Errorf("QRP moved success: %v vs static %v", qrp.Success, static.Success)
	}
	if qrp.MeanMessages >= static.MeanMessages {
		t.Errorf("QRP saved no messages: %v vs static %v", qrp.MeanMessages, static.MeanMessages)
	}
	if chordArm.Success != 1 {
		t.Errorf("chord success %v, want 1", chordArm.Success)
	}

	rows := res.Table()
	if len(rows) != 7 { // header + five arms + gain row
		t.Fatalf("table has %d rows, want 7", len(rows))
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), len(rows[0]))
		}
	}
}

// TestQueryCentricMetricsInert pins the observability contract for the new
// experiment: attaching a registry changes nothing, and the adaptive arm's
// counters land in it.
func TestQueryCentricMetricsInert(t *testing.T) {
	run := func(withObs bool) ([]byte, *obs.Registry) {
		e := NewEnv(ScaleTiny, 42)
		e.Workers = 2
		if withObs {
			e.Obs = obs.NewRegistry()
		}
		res, err := QueryCentricWith(e, DefaultQueryCentricConfig())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw, e.Obs
	}
	bare, _ := run(false)
	instrumented, reg := run(true)
	if string(bare) != string(instrumented) {
		t.Fatalf("attaching metrics changed query-centric results:\n%s\nvs\n%s", bare, instrumented)
	}
	var sawAdaptive bool
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "adaptive_rewires_total" && m.Value > 0 {
			sawAdaptive = true
		}
	}
	if !sawAdaptive {
		t.Error("instrumented run recorded no adaptive rewires")
	}
}
