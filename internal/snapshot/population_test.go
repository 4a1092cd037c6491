package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"querycentric/internal/capacity"
	"querycentric/internal/catalog"
	"querycentric/internal/churn"
	"querycentric/internal/events"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
	"querycentric/internal/terms"
)

// openTestPopulation builds testBuildConfig(peers) into a temporary
// population and closes it when the test ends.
func openTestPopulation(t *testing.T, peers int) *Population {
	t.Helper()
	pop, err := OpenPopulation("", "", testBuildConfig(peers), nil)
	if err != nil {
		t.Fatalf("OpenPopulation: %v", err)
	}
	t.Cleanup(func() { pop.Close() })
	return pop
}

// TestOpenPopulationLeavesNoFile: with neither load nor save set, the
// population is built into a temporary snapshot and mapped back, and the
// temporary file is gone by the time OpenPopulation returns; networks
// restored afterwards still read the mapping and carry the in-heap
// build's indexes.
func TestOpenPopulationLeavesNoFile(t *testing.T) {
	want, err := buildNet(t, 150).IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	pop := openTestPopulation(t, 150)
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Fatalf("temporary directory holds %v (err %v), want nothing", left, err)
	}
	for range 2 {
		nw, err := pop.Network()
		if err != nil {
			t.Fatalf("Network: %v", err)
		}
		if !nw.Borrowed() {
			t.Fatal("restored network is not mapped from the snapshot")
		}
		got, err := nw.IndexChecksum()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("index checksum %#x, in-heap build %#x", got, want)
		}
		// Closing a restore must leave the population's mapping alone.
		if err := nw.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestRestoredNetworksUnderMutation is the differential reference for
// copy-on-write mutation of mapped networks. First, one event scenario with
// churn, repair, a capacity plane with breakers and 5% message loss runs
// over a heap build and over a population restore: the results must be
// equal. Then two networks restored from one population are taken, and
// one of them has edges added and removed, a file added and QRP enabled:
// the other must still flood exactly like a third, untouched restore —
// no restore shares state a mutation writes through.
func TestRestoredNetworksUnderMutation(t *testing.T) {
	const peers = 150
	bcfg := testBuildConfig(peers)
	pop := openTestPopulation(t, peers)

	heap := func() *gnet.Network {
		cat, err := catalog.BuildWorkers(bcfg.Catalog, 0)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := gnet.NewFromCatalogWorkers(bcfg.Network, cat, 0)
		if err == nil {
			err = nw.BuildIndexes(0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	restore := func() *gnet.Network {
		nw, err := pop.Network()
		if err != nil {
			t.Fatalf("Network: %v", err)
		}
		return nw
	}

	scenario := func(nw *gnet.Network) []byte {
		t.Helper()
		nw.SetFaults(faults.New(faults.Config{Seed: 5, MessageLoss: 0.05}))
		tl := churn.DefaultTimelineConfig(5)
		ccfg := capacity.DefaultConfig(5)
		ccfg.QueueDepth = 8
		ccfg.Policy = capacity.TTLAware
		ccfg.Breakers = true
		s, err := events.NewScenario(nw, events.ScenarioConfig{
			Kind: events.FlashCrowd, Seed: 5, Duration: 3600, Window: 600,
			QueriesPerWindow: 40, BatchesPerWindow: 4, TTL: 3,
			Repair:       gnet.DefaultRepairConfig(5),
			Churn:        &tl,
			Flash:        &events.FlashConfig{Start: 1200, End: 2400, Frac: 0.5, Boost: 3},
			Capacity:     &ccfg,
			QueryRetries: 1,
		})
		if err != nil {
			t.Fatalf("NewScenario: %v", err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.ChurnEvents == 0 || res.Capacity == nil || res.Capacity.Shed == 0 || res.Capacity.BreakerOpens == 0 {
			t.Fatalf("a plane stayed idle: churn events %d, capacity %+v", res.ChurnEvents, res.Capacity)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if h, r := scenario(heap()), scenario(restore()); string(h) != string(r) {
		t.Fatalf("scenario over a restored network diverged from the heap build:\n%s\nvs\n%s", r, h)
	}

	mutated, kept, fresh := restore(), restore(), restore()
	origins := []int{0, 1, 2, 3}
	var queries []string
	for _, o := range origins {
		toks := terms.Tokenize(kept.Peers[o+10].Library[0].Name)
		queries = append(queries, toks[0], fmt.Sprintf("%s %s", toks[0], toks[len(toks)-1]))
	}
	floods := func(nw *gnet.Network) []*gnet.FloodResult {
		t.Helper()
		ctx := nw.NewFloodCtx()
		var out []*gnet.FloodResult
		for _, o := range origins {
			for i, q := range queries {
				res, err := ctx.Flood(o, q, 3, rng.NewNamed(uint64(o), fmt.Sprint("flood/", i)))
				if err != nil {
					t.Fatalf("Flood: %v", err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	want := floods(fresh)

	for _, o := range origins {
		for _, v := range append([]int(nil), mutated.Peers[o].Neighbors...) {
			mutated.DisconnectPeers(o, v)
		}
		if err := mutated.ConnectPeers(o, peers-1-o); err != nil {
			t.Fatal(err)
		}
	}
	if err := mutated.AddFile(peers-1, "zzznovel replica.mp3", 1); err != nil {
		t.Fatal(err)
	}
	if err := mutated.EnableQRP(16); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(floods(mutated), want) {
		t.Fatal("the mutations left every flood unchanged: the test cannot see a leak")
	}
	if got := floods(kept); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating one restore changed how another restore of the same population floods")
	}
	if got := floods(restore()); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating one restore changed what later restores of the population flood")
	}
}
