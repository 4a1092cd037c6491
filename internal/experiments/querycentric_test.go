package experiments

import (
	"flag"
	"strings"
	"testing"
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

	// The adaptive arm's counters reach an attached registry.
	var sawAdaptive bool
	for _, m := range memoRun(t, entry(t, "query-centric"), 8, true).manifest.Metrics.Metrics {
		sawAdaptive = sawAdaptive || m.Name == "adaptive_rewires_total" && m.Value > 0
	}
	if !sawAdaptive {
		t.Error("instrumented run recorded no adaptive rewires")
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

// TestQueryCentricKnobChecks covers the qc-sim query-centric-mode flags:
// the adaptation interval must be positive, the budgets non-negative (zero
// disables the mechanism), and the replica scheme must come from the
// adaptive package's set.
func TestQueryCentricKnobChecks(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-adapt-interval", "1"}, true},
		{[]string{"-adapt-interval", "0"}, false},
		{[]string{"-adapt-interval", "-5"}, false},
		{[]string{"-rewire-budget", "0"}, true},
		{[]string{"-rewire-budget", "-1"}, false},
		{[]string{"-replicate-budget", "0"}, true},
		{[]string{"-replicate-budget", "-1"}, false},
		{[]string{"-repl-scheme", "owner"}, true},
		{[]string{"-repl-scheme", "path"}, true},
		{[]string{"-repl-scheme", "random"}, true},
		{[]string{"-repl-scheme", "sqrt"}, true},
		{[]string{"-repl-scheme", ""}, false},
		{[]string{"-repl-scheme", "square-root"}, false},
		{[]string{"-repl-scheme", "Owner"}, false},
	} {
		fs := flag.NewFlagSet("query-centric", flag.ContinueOnError)
		cfg := bindQueryCentric(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if err := cfg.check(); (err == nil) != tc.ok {
			t.Errorf("%v: got err=%v, want ok=%v", tc.args, err, tc.ok)
		}
	}
	cfg := QueryCentricConfig{AdaptInterval: 1, ReplScheme: "nope"}
	if err := cfg.check(); err == nil || !strings.Contains(err.Error(), "owner|path|random|sqrt") {
		t.Errorf("-repl-scheme error %v does not list choices", err)
	}
	// The flags bind straight into the config the run receives.
	fs := flag.NewFlagSet("query-centric", flag.ContinueOnError)
	bound := bindQueryCentric(fs)
	if err := fs.Parse([]string{"-adapt-interval", "32", "-rewire-budget", "4", "-replicate-budget", "0", "-repl-scheme", "owner"}); err != nil {
		t.Fatal(err)
	}
	if want := (QueryCentricConfig{AdaptInterval: 32, RewireBudget: 4, ReplScheme: "owner"}); *bound != want {
		t.Errorf("bound config %+v, want %+v", *bound, want)
	}
}
