package catalog

import (
	"slices"
	"testing"

	"querycentric/internal/stats"
)

func smallConfig(seed uint64) Config {
	return Config{
		Seed:                seed,
		Peers:               300,
		UniqueObjects:       8000,
		ReplicaAlpha:        2.45,
		VariantProb:         0.08,
		NonSpecificPeerFrac: 0.05,
	}
}

func TestBuildValidation(t *testing.T) {
	bad := []Config{
		{Peers: 0, UniqueObjects: 10, ReplicaAlpha: 2},
		{Peers: 10, UniqueObjects: 0, ReplicaAlpha: 2},
		{Peers: 10, UniqueObjects: 10, ReplicaAlpha: 1},
		{Peers: 10, UniqueObjects: 10, ReplicaAlpha: 2, VariantProb: 1.5},
		{Peers: 10, UniqueObjects: 10, ReplicaAlpha: 2, NonSpecificPeerFrac: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalPlacements != b.TotalPlacements {
		t.Fatalf("placements differ: %d vs %d", a.TotalPlacements, b.TotalPlacements)
	}
	for p := range a.Libraries {
		if len(a.Libraries[p]) != len(b.Libraries[p]) {
			t.Fatalf("peer %d library size differs", p)
		}
		for i := range a.Libraries[p] {
			if a.Libraries[p][i] != b.Libraries[p][i] {
				t.Fatalf("peer %d name %d differs", p, i)
			}
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	a, _ := Build(smallConfig(1))
	b, _ := Build(smallConfig(2))
	if a.Objects[0].Name == b.Objects[0].Name && a.Objects[1].Name == b.Objects[1].Name &&
		a.Objects[0].Replicas == b.Objects[0].Replicas && a.TotalPlacements == b.TotalPlacements {
		t.Error("different seeds produced suspiciously identical catalogs")
	}
}

func TestReplicaDistributionShape(t *testing.T) {
	// The calibration targets from DESIGN.md §5: ~70% singletons (we accept
	// 0.60–0.85 at this scale), ≥97% of objects on ≤37 peers, mean 1.2–2.5.
	c, err := Build(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(c.Objects))
	sum := 0
	for i, o := range c.Objects {
		counts[i] = o.Replicas
		sum += o.Replicas
	}
	single := stats.FractionAtMost(counts, 1)
	if single < 0.60 || single > 0.85 {
		t.Errorf("singleton fraction = %v, want in [0.60, 0.85]", single)
	}
	le37 := stats.FractionAtMost(counts, 37)
	if le37 < 0.97 {
		t.Errorf("fraction with <=37 replicas = %v, want >= 0.97", le37)
	}
	mean := float64(sum) / float64(len(counts))
	if mean < 1.2 || mean > 2.5 {
		t.Errorf("mean replication = %v, want in [1.2, 2.5]", mean)
	}
}

func TestPlacementsMatchReplicas(t *testing.T) {
	cfg := smallConfig(9)
	cfg.NonSpecificPeerFrac = 0 // so placements == sum of replicas
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, o := range c.Objects {
		sum += o.Replicas
	}
	if c.TotalPlacements != sum {
		t.Errorf("TotalPlacements = %d, want %d", c.TotalPlacements, sum)
	}
	libTotal := 0
	for _, l := range c.Libraries {
		libTotal += len(l)
	}
	if libTotal != sum {
		t.Errorf("library name total = %d, want %d", libTotal, sum)
	}
}

func TestNoVariantsMeansExactNames(t *testing.T) {
	cfg := smallConfig(11)
	cfg.VariantProb = 0
	cfg.NonSpecificPeerFrac = 0
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	canonical := map[string]bool{}
	for _, o := range c.Objects {
		canonical[o.Name] = true
	}
	for p, lib := range c.Libraries {
		for _, name := range lib {
			if !canonical[name] {
				t.Fatalf("peer %d shares non-canonical name %q with variants disabled", p, name)
			}
		}
	}
}

func TestNonSpecificNamesAppear(t *testing.T) {
	cfg := smallConfig(13)
	cfg.NonSpecificPeerFrac = 0.10
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, lib := range c.Libraries {
		for _, name := range lib {
			if name == "01 Track.wma" {
				holders++
				break
			}
		}
	}
	// Expect ~10% of 300 peers = 30; allow wide slack.
	if holders < 10 || holders > 60 {
		t.Errorf("non-specific name on %d peers, want ~30", holders)
	}
}

func TestReplicasWithinPeerBound(t *testing.T) {
	cfg := smallConfig(15)
	cfg.Peers = 20 // force the cap to bind
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Objects {
		if o.Replicas > cfg.Peers {
			t.Fatalf("object %d has %d replicas with only %d peers", o.ID, o.Replicas, cfg.Peers)
		}
	}
}

func TestReplicasOnDistinctPeers(t *testing.T) {
	cfg := smallConfig(17)
	cfg.VariantProb = 0
	cfg.NonSpecificPeerFrac = 0
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count name occurrences per peer: with variants off, an object placed
	// twice on a peer would duplicate its canonical name there.
	for p, lib := range c.Libraries {
		seen := map[string]int{}
		for _, n := range lib {
			seen[n]++
		}
		for n, k := range seen {
			if k > 1 {
				// Could also be a vocabulary collision between two objects;
				// verify against object table before failing.
				dup := 0
				for _, o := range c.Objects {
					if o.Name == n {
						dup++
					}
				}
				if dup < k {
					t.Fatalf("peer %d holds %d copies of %q (only %d objects share that name)", p, k, n, dup)
				}
			}
		}
	}
}

func TestLibrarySizesHeterogeneous(t *testing.T) {
	c, err := Build(smallConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, l := range c.Libraries {
		sizes = append(sizes, len(l))
	}
	slices.Sort(sizes)
	if len(sizes) != 300 {
		t.Fatalf("got %d library sizes", len(sizes))
	}
	if sizes[len(sizes)-1] <= sizes[len(sizes)/2] {
		t.Error("expected heavy-tailed library sizes (max > median)")
	}
}

func TestDefaultConfigBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale build in -short mode")
	}
	c, err := Build(DefaultConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Objects) != 81000 || len(c.Libraries) != 1000 {
		t.Fatalf("unexpected sizes: %d objects, %d peers", len(c.Objects), len(c.Libraries))
	}
}

func BenchmarkBuild(b *testing.B) {
	cfg := smallConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamMatchesBuild pins the Sink contract the sharded snapshot
// builder depends on: Stream emits exactly Build's population — the same
// objects in ID order and, per peer, placements in exactly library order —
// at every worker count.
func TestStreamMatchesBuild(t *testing.T) {
	cfg := smallConfig(7)
	want, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		objs := 0
		libs := make([][]string, cfg.Peers)
		placed, err := Stream(cfg, workers, Sink{
			Object: func(id int, name string, replicas int) {
				if o := want.Objects[id]; o.Name != name || o.Replicas != replicas {
					t.Fatalf("workers=%d: object %d = (%q, %d), Build has (%q, %d)",
						workers, id, name, replicas, o.Name, o.Replicas)
				}
				objs++
			},
			Place: func(peer int, name string) error {
				libs[peer] = append(libs[peer], name)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if placed != want.TotalPlacements {
			t.Fatalf("workers=%d: %d placements, Build counted %d", workers, placed, want.TotalPlacements)
		}
		if objs != len(want.Objects) {
			t.Fatalf("workers=%d: Object called %d times for %d objects", workers, objs, len(want.Objects))
		}
		for p := range libs {
			if len(libs[p]) != len(want.Libraries[p]) {
				t.Fatalf("workers=%d: peer %d has %d names, Build has %d",
					workers, p, len(libs[p]), len(want.Libraries[p]))
			}
			for i := range libs[p] {
				if libs[p][i] != want.Libraries[p][i] {
					t.Fatalf("workers=%d: peer %d name %d = %q, Build has %q",
						workers, p, i, libs[p][i], want.Libraries[p][i])
				}
			}
		}
	}
}

// TestStreamValidation: Stream (not just Build) must reject a nil Place
// sink and bad configs before doing any work.
func TestStreamValidation(t *testing.T) {
	if _, err := Stream(smallConfig(1), 0, Sink{}); err == nil {
		t.Fatal("Stream accepted a nil Place sink")
	}
	bad := smallConfig(1)
	bad.Peers = 0
	if _, err := Stream(bad, 0, Sink{Place: func(int, string) error { return nil }}); err == nil {
		t.Fatal("Stream accepted zero peers")
	}
}
