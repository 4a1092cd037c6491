package events

import (
	"fmt"
	"testing"

	"querycentric/internal/churn"
	"querycentric/internal/faults"
	"querycentric/internal/parallel"
)

// fullScanDeficits is the reference the incremental deficit clocks are
// checked against: every peer judged again from scratch, in deficit when it
// is online and its live repair degree is below target.
func fullScanDeficits(s *Scenario) []bool {
	online := s.m.Online()
	out := make([]bool, len(s.nw.Peers))
	for id := range s.nw.Peers {
		out[id] = online[id] && s.liveDegree(id) < s.m.TargetDegree(id)
	}
	return out
}

// TestDeficitClocksMatchFullScan drives scenarios with session churn (polite
// and abrupt departures), a crash burst, a half-polite burst and lossy
// keepalives (so live neighbors time out too), with repair on and off, one
// event at a time. From the first churn, burst or
// maintenance event on — the first drain of the touched log, which starts
// with every peer marked — every peer must have its deficit clock running,
// after every handler, exactly when the full scan finds it in deficit.
func TestDeficitClocksMatchFullScan(t *testing.T) {
	for _, repair := range []bool{true, false} {
		t.Run(fmt.Sprintf("repair=%v", repair), func(t *testing.T) {
			cfg := shortScenario(FaultRecovery, 7)
			cfg.Repair.Repair = repair
			tl := churn.DefaultTimelineConfig(7)
			cfg.Churn = &tl
			cfg.Bursts = []faults.Burst{{Time: 900, Frac: 0.2}, {Time: 2100, Frac: 0.15, Polite: 0.5}}
			nw := testNetwork(t, 7)
			nw.SetFaults(faults.New(faults.Config{Seed: 7, MessageLoss: 0.2}))
			s, err := NewScenario(nw, cfg)
			if err != nil {
				t.Fatalf("NewScenario: %v", err)
			}
			// Stepping the engine by hand, the test opens the flood pool
			// Run would.
			s.pool = parallel.NewPool(cfg.Workers, nw.NewFloodCtx)
			defer s.pool.Close()
			first := cfg.Bursts[0].Time
			if len(s.tl.Events) > 0 {
				first = min(first, s.tl.Events[0].Time)
			}
			if repair {
				first = min(first, cfg.Repair.PingInterval)
			}
			// Same-instant queries and window closes dispatch after churn,
			// bursts and maintenance, so every handler from t=first on runs
			// after the first drain.
			checked, opened, closed := 0, 0, 0
			prev := make([]bool, len(s.nw.Peers))
			for {
				more, err := s.eng.step()
				if err != nil {
					t.Fatalf("step: %v", err)
				}
				if !more {
					break
				}
				if s.eng.now < first {
					continue
				}
				checked++
				for id, want := range fullScanDeficits(s) {
					running := s.deficitSince[id] >= 0
					if running != want {
						t.Fatalf("after event %d (t=%d): peer %d clock running=%v, full scan says deficit=%v",
							s.eng.Processed(), s.eng.now, id, running, want)
					}
					if running && !prev[id] {
						opened++
					}
					if !running && prev[id] {
						closed++
					}
					prev[id] = running
				}
			}
			// The run must exercise the clocks, not just agree on idle peers.
			if checked == 0 || opened == 0 || (repair && closed == 0) {
				t.Fatalf("vacuous run: %d events checked, %d clocks opened, %d closed", checked, opened, closed)
			}
			t.Logf("%d events checked, %d clocks opened, %d closed", checked, opened, closed)
		})
	}
}
