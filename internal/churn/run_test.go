// The graph-level run lives in internal/events (events imports churn, so
// churn cannot call it); its behavioural tests stay beside the model they
// exercise, as an external test package.
package churn_test

import (
	"math"
	"testing"

	"querycentric/internal/churn"
	"querycentric/internal/events"
	"querycentric/internal/overlay"
	"querycentric/internal/search"
)

func testGraph(t *testing.T, n int) *overlay.Graph {
	t.Helper()
	g, err := overlay.NewGnutella(n, overlay.DefaultGnutellaConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunValidation(t *testing.T) {
	g := testGraph(t, 100)
	p, _ := search.UniformPlacement(100, 10, 2, 1)
	bad := churn.DefaultConfig(1)
	bad.QueriesPerSample = 0
	if _, err := events.RunGraphChurn(g, p, bad); err == nil {
		t.Error("zero queries per sample accepted")
	}
	wrong, _ := search.UniformPlacement(50, 10, 2, 1)
	if _, err := events.RunGraphChurn(g, wrong, churn.DefaultConfig(1)); err == nil {
		t.Error("mismatched placement accepted")
	}
}

func TestRunRejectsInvalidSchedules(t *testing.T) {
	// These configurations used to loop forever or panic; they must be
	// rejected up front.
	g := testGraph(t, 60)
	p, _ := search.UniformPlacement(60, 5, 2, 1)
	for _, mutate := range []func(*churn.Config){
		func(c *churn.Config) { c.Duration = 0 },
		func(c *churn.Config) { c.Duration = -600 },
	} {
		cfg := churn.DefaultConfig(4)
		mutate(&cfg)
		if _, err := events.RunGraphChurn(g, p, cfg); err == nil {
			t.Errorf("invalid schedule %+v accepted", cfg)
		}
	}
}

func TestStationaryOnlineFraction(t *testing.T) {
	g := testGraph(t, 500)
	p, _ := search.UniformPlacement(500, 20, 5, 2)
	cfg := churn.DefaultConfig(2)
	cfg.Duration = 4 * 3600
	res, err := events.RunGraphChurn(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := churn.MeanOnline / (churn.MeanOnline + churn.MeanOffline)
	if math.Abs(res.MeanOnline-want) > 0.08 {
		t.Errorf("mean online fraction %v, want ~%v", res.MeanOnline, want)
	}
	if len(res.Samples) != int(cfg.Duration/churn.SampleEvery) {
		t.Errorf("got %d samples", len(res.Samples))
	}
}

func TestChurnAmplifiesZipfPenalty(t *testing.T) {
	// The headline property: at equal churn, uniform replication keeps
	// most queries alive while single-copy-heavy Zipf placement loses
	// whatever its holder's uptime loses.
	g := testGraph(t, 600)
	uni, err := search.UniformPlacement(600, 60, 12, 4) // 2% replication
	if err != nil {
		t.Fatal(err)
	}
	zpf, err := search.ZipfPlacement(600, 60, 2.45, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churn.DefaultConfig(5)
	cfg.Duration = 2 * 3600
	rUni, err := events.RunGraphChurn(g, uni, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rZpf, err := events.RunGraphChurn(g, zpf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rZpf.MeanSuccess >= rUni.MeanSuccess {
		t.Errorf("Zipf success %v not below uniform %v under churn",
			rZpf.MeanSuccess, rUni.MeanSuccess)
	}
	// The Zipf ceiling: ~70% of objects have one copy and that copy is
	// online ~71% of the time, so success should sit well under uniform's.
	if rUni.MeanSuccess-rZpf.MeanSuccess < 0.1 {
		t.Errorf("churn gap too small: uniform %v vs zipf %v",
			rUni.MeanSuccess, rZpf.MeanSuccess)
	}
}

func TestDeterministic(t *testing.T) {
	g := testGraph(t, 200)
	p, _ := search.UniformPlacement(200, 20, 4, 6)
	cfg := churn.DefaultConfig(7)
	cfg.Duration = 3600
	a, err := events.RunGraphChurn(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := events.RunGraphChurn(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

func BenchmarkChurnRun(b *testing.B) {
	g, err := overlay.NewGnutella(500, overlay.DefaultGnutellaConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := search.ZipfPlacement(500, 50, 2.45, 50, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := churn.DefaultConfig(3)
	cfg.Duration = 3600
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := events.RunGraphChurn(g, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
