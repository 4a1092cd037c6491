package shortcuts

import (
	"testing"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/zipf"
)

func testSystem(t *testing.T, nodes, objects, replicas int) *System {
	t.Helper()
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := search.UniformPlacement(nodes, objects, replicas, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	g, _ := overlay.NewErdosRenyi(10, 4, 1)
	p, _ := search.UniformPlacement(10, 2, 1, 1)
	if _, err := New(g, p, Config{ListSize: 0, TTL: 3}); err == nil {
		t.Error("zero list accepted")
	}
	if _, err := New(g, p, Config{ListSize: 5, TTL: 0}); err == nil {
		t.Error("zero TTL accepted")
	}
	wrong, _ := search.UniformPlacement(20, 2, 1, 1)
	if _, err := New(g, wrong, DefaultConfig()); err == nil {
		t.Error("mismatched placement accepted")
	}
}

func TestSearchValidation(t *testing.T) {
	s := testSystem(t, 100, 10, 3)
	if _, err := s.Search(-1, 0); err == nil {
		t.Error("bad origin accepted")
	}
	if _, err := s.Search(0, 99); err == nil {
		t.Error("bad object accepted")
	}
}

func TestShortcutInstalledAfterFloodSuccess(t *testing.T) {
	s := testSystem(t, 300, 5, 60)
	// Find an origin that doesn't hold object 0.
	origin := 0
	holders := map[int32]bool{}
	for _, h := range s.p.Holders[0] {
		holders[h] = true
	}
	for holders[int32(origin)] {
		origin++
	}
	res, err := s.Search(origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("flood missed; placement unlucky at this seed")
	}
	if res.ViaShortcut {
		t.Fatal("first query cannot be a shortcut hit")
	}
	if len(s.lists[origin]) != 1 {
		t.Fatalf("shortcut not installed: len=%d", len(s.lists[origin]))
	}
	// Second identical query must hit the shortcut at unit cost.
	res2, err := s.Search(origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found || !res2.ViaShortcut {
		t.Errorf("repeat query missed the shortcut: %+v", res2)
	}
	if res2.Messages != 1 {
		t.Errorf("shortcut hit cost %d messages, want 1", res2.Messages)
	}
}

func TestListCapAndDedup(t *testing.T) {
	g, _ := overlay.NewErdosRenyi(50, 4, 5)
	p, _ := search.UniformPlacement(50, 30, 2, 6)
	s, err := New(g, p, Config{ListSize: 3, TTL: 3})
	if err != nil {
		t.Fatal(err)
	}
	for sc := int32(1); sc <= 10; sc++ {
		s.install(0, sc)
	}
	if got := len(s.lists[0]); got != 3 {
		t.Fatalf("list length %d, want 3", got)
	}
	// Re-installing an existing shortcut must not duplicate.
	before := len(s.lists[0])
	s.install(0, s.lists[0][1])
	if len(s.lists[0]) != before {
		t.Error("duplicate shortcut installed")
	}
}

func TestStableInterestsCutCost(t *testing.T) {
	// A stable Zipf query distribution: after warmup, most queries for
	// popular objects resolve through shortcuts, cutting mean messages.
	const nodes = 400
	g, err := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := search.UniformPlacement(nodes, 50, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qd, err := zipf.New(50, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(r *rng.Source) int { return qd.Sample(r) - 1 }
	warm, err := s.RunWorkload(500, pick, 9)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := s.RunWorkload(500, pick, 10)
	if err != nil {
		t.Fatal(err)
	}
	if steady.ShortcutHits <= warm.ShortcutHits {
		t.Errorf("shortcut hit rate did not improve: %v -> %v",
			warm.ShortcutHits, steady.ShortcutHits)
	}
	if steady.MeanMessages >= warm.MeanMessages {
		t.Errorf("mean cost did not drop: %v -> %v", warm.MeanMessages, steady.MeanMessages)
	}
	// Each origin issues only ~2.5 queries across both phases, so the
	// absolute hit rate is modest; the improvement above is the claim.
	if steady.ShortcutHits < 0.15 {
		t.Errorf("steady-state shortcut hit rate %v too low", steady.ShortcutHits)
	}
}

func TestInterestShiftDegradesShortcuts(t *testing.T) {
	// When the popular vocabulary shifts (the paper's transients), warm
	// shortcuts stop helping until relearned.
	const nodes = 400
	g, _ := overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), 11)
	p, _ := search.UniformPlacement(nodes, 100, 8, 12)
	s, err := New(g, p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qd, _ := zipf.New(50, 1.2)
	oldPick := func(r *rng.Source) int { return qd.Sample(r) - 1 }      // objects 0..49
	newPick := func(r *rng.Source) int { return 50 + qd.Sample(r) - 1 } // objects 50..99
	if _, err := s.RunWorkload(800, oldPick, 13); err != nil {
		t.Fatal(err)
	}
	steady, err := s.RunWorkload(300, oldPick, 14)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := s.RunWorkload(300, newPick, 15)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.ShortcutHits >= steady.ShortcutHits {
		t.Errorf("interest shift did not degrade shortcuts: %v vs %v",
			shifted.ShortcutHits, steady.ShortcutHits)
	}
}

func BenchmarkShortcutSearch(b *testing.B) {
	g, err := overlay.NewGnutella(2000, overlay.DefaultGnutellaConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := search.ZipfPlacement(2000, 200, 2.45, 200, 2)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(g, p, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(i%2000, i%200); err != nil {
			b.Fatal(err)
		}
	}
}
