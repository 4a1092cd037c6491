package gnet_test

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
	"querycentric/internal/snapshot"
)

// columnNet builds a catalog network with its holder index.
func columnNet(t *testing.T) *gnet.Network {
	t.Helper()
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 5, Peers: 150, UniqueObjects: 150 * 25, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := gnet.NewFromCatalogWorkers(gnet.DefaultConfig(5), cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.BuildIndexes(2); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestDenseColumnsMatchLookup holds every dense term's offset column to the
// per-peer lookup it replaces, on a catalog-built network, on its snapshot
// copy (snapshot.Load) and on its mapping (snapshot.LoadMapped), whose
// arenas are read-only views of the file: an entry exactly where lookup
// finds the term, and the same postings read through it. An all-dense
// flood over each must then equal the built network's.
func TestDenseColumnsMatchLookup(t *testing.T) {
	built := columnNet(t)
	query := gnet.DenseQuery(built)
	if len(gnet.DenseTerms(built)) < 2 {
		t.Fatalf("fixture has dense terms %q: the test needs two", gnet.DenseTerms(built))
	}
	want, err := built.NewFloodCtx().Flood(3, query, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalResults == 0 {
		t.Fatalf("all-dense query %q found nothing: the fixture must hit", query)
	}

	path := filepath.Join(t.TempDir(), "net.qcsnap")
	if _, err := snapshot.Save(path, built, 0); err != nil {
		t.Fatal(err)
	}
	copied, err := snapshot.Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := snapshot.LoadMapped(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for _, c := range []struct {
		name string
		nw   *gnet.Network
	}{{"built", built}, {"Load", copied}, {"LoadMapped", mapped}} {
		if err := gnet.CheckDenseColumns(c.nw); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ctx := c.nw.NewFloodCtx()
		got, err := ctx.Flood(3, query, 4, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if len(ctx.FloodColumns()) != 2 {
			t.Fatalf("%s: the all-dense flood read %d columns, want 2", c.name, len(ctx.FloodColumns()))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: all-dense flood diverged:\n%+v\nvs\n%+v", c.name, got, want)
		}
	}
}

// TestDenseColumnsConcurrentBuild has eight goroutines, each with its own
// FloodCtx, flood one all-dense query on a fresh network at once (run it
// under -race): every result must be the same, and every flood must have
// read the very columns the holder index keeps — one build per term.
func TestDenseColumnsConcurrentBuild(t *testing.T) {
	nw := columnNet(t)
	query := gnet.DenseQuery(nw)
	if n := len(gnet.BuiltColumns(nw)); n != 0 {
		t.Fatalf("a fresh network holds %d columns", n)
	}
	const floods = 8
	results := make([]*gnet.FloodResult, floods)
	read := make([][][]uint32, floods)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range floods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := nw.NewFloodCtx()
			<-start
			res, err := ctx.Flood(3, query, 4, rng.New(9))
			if err != nil {
				t.Error(err)
				return
			}
			results[g], read[g] = res, ctx.FloodColumns()
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	built := gnet.BuiltColumns(nw)
	if len(built) != 2 {
		t.Fatalf("the holder index holds %d columns after floods naming 2 dense terms", len(built))
	}
	for g := range floods {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("flood %d diverged:\n%+v\nvs\n%+v", g, results[g], results[0])
		}
		if len(read[g]) != 2 {
			t.Fatalf("flood %d read %d columns, want 2", g, len(read[g]))
		}
		for _, col := range read[g] {
			kept := false
			for _, b := range built {
				kept = kept || &b[0] == &col[0]
			}
			if !kept {
				t.Fatalf("flood %d read a column the holder index does not keep: built twice", g)
			}
		}
	}
}
