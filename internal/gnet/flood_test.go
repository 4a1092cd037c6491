package gnet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/faults"
	"querycentric/internal/rng"
)

// pinNet is a hand-wired flat topology small enough to count descriptors
// by hand:
//
//	0 — {1,2},  1 — {0,2,3},  2 — {0,1,3},  3 — {1,2,4},  4 — {3}
//
// Peer 3 shares the only file matching "target".
func pinNet(t *testing.T) *Network {
	neighbors := [][]int{{1, 2}, {0, 2, 3}, {0, 1, 3}, {1, 2, 4}, {3}}
	nw := &Network{Config: Config{}, Peers: make([]*Peer, 5), firewalled: make([]bool, 5)}
	for i, nbs := range neighbors {
		nw.Peers[i] = &Peer{ID: i, Addr: addrFor(i), Neighbors: nbs}
	}
	nw.Peers[3].Library = []File{{Index: 0, Size: 1, Name: "target.mp3"}}
	return indexed(t, nw)
}

// TestFloodMessagesCountsTransmittedDescriptors pins the Messages
// semantics: every descriptor placed on a connection counts, including
// same-ring duplicates (both copies were physically transmitted before the
// recipient saw either), but copies to peers already processed in an
// earlier ring are never sent.
//
// From 0 with TTL 2: origin sends to 1 and 2 (2 messages). Peer 1 forwards
// to 2 and 3; peer 2 forwards to 3 only (0 and 1 already saw the GUID) —
// the second copy to 3 is a same-ring duplicate and still counts. Total 5,
// and peer 2's ring-2 copy from peer 1 is dropped without being resent.
func TestFloodMessagesCountsTransmittedDescriptors(t *testing.T) {
	cases := []struct {
		ttl                     int
		messages, reached, hits int
	}{
		{ttl: 1, messages: 2, reached: 2, hits: 0},
		{ttl: 2, messages: 5, reached: 3, hits: 1},
		// TTL 3 additionally lets peer 3 forward to 4 (1,2 already seen).
		{ttl: 3, messages: 6, reached: 4, hits: 1},
		// No TTL budget is left to use edges beyond 4's: counts saturate.
		{ttl: 4, messages: 6, reached: 4, hits: 1},
	}
	for _, tc := range cases {
		res, err := pinNet(t).NewFloodCtx().Flood(0, "target", tc.ttl, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != tc.messages || res.PeersReached != tc.reached || len(res.Hits) != tc.hits {
			t.Errorf("ttl=%d: messages=%d reached=%d hits=%d, want %d/%d/%d",
				tc.ttl, res.Messages, res.PeersReached, len(res.Hits),
				tc.messages, tc.reached, len(res.Hits))
		}
		if tc.hits == 1 {
			if h := res.Hits[0]; h.PeerID != 3 || h.Hops != 2 {
				t.Errorf("ttl=%d: hit %+v, want peer 3 at 2 hops", tc.ttl, h)
			}
		}
	}
}

// TestFloodCtxReuseMatchesFreshFloods verifies that a reused context (the
// parallel engine's per-worker fast path) produces results byte-identical
// to the context-free Network.Flood, across QRP and fault configurations.
func TestFloodCtxReuseMatchesFreshFloods(t *testing.T) {
	for _, mode := range []string{"plain", "qrp", "lossy"} {
		t.Run(mode, func(t *testing.T) {
			a := populatedNet(t, 150)
			b := populatedNet(t, 150)
			switch mode {
			case "qrp":
				for _, nw := range []*Network{a, b} {
					if err := nw.EnableQRP(16); err != nil {
						t.Fatal(err)
					}
				}
			case "lossy":
				a.SetFaults(faults.New(faults.Config{Seed: 3, MessageLoss: 0.25}))
				b.SetFaults(faults.New(faults.Config{Seed: 3, MessageLoss: 0.25}))
			}
			ctx := a.NewFloodCtx()
			for trial := 0; trial < 25; trial++ {
				origin := trial % len(a.Peers)
				criteria := fileOf(t, a, trial*17+1)
				ra, err := ctx.Flood(origin, criteria, 4, rng.New(uint64(trial)))
				if err != nil {
					t.Fatal(err)
				}
				rb, err := b.NewFloodCtx().Flood(origin, criteria, 4, rng.New(uint64(trial)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ra, rb) {
					t.Fatalf("%s trial %d: reused ctx diverged:\n%+v\nvs\n%+v", mode, trial, ra, rb)
				}
			}
		})
	}
}

// TestConcurrentFloodCtxsAgree floods the same network from many
// goroutines, each with its own context, and checks every result against a
// sequential baseline — exercising the shared term and holder indexes and
// the shared fault plane under the race detector.
func TestConcurrentFloodCtxsAgree(t *testing.T) {
	nw := populatedNet(t, 200)
	nw.SetFaults(faults.New(faults.Config{Seed: 7, MessageLoss: 0.1}))
	if err := nw.EnableQRP(16); err != nil {
		t.Fatal(err)
	}

	const trials = 48
	type spec struct {
		origin   int
		criteria string
	}
	specs := make([]spec, trials)
	baseline := make([]*FloodResult, trials)
	base := populatedNet(t, 200) // separate net: keeps nw's indexes cold
	base.SetFaults(faults.New(faults.Config{Seed: 7, MessageLoss: 0.1}))
	if err := base.EnableQRP(16); err != nil {
		t.Fatal(err)
	}
	ctx := base.NewFloodCtx()
	for i := range specs {
		specs[i] = spec{origin: i * 3 % 200, criteria: fileOf(t, base, i*11)}
		res, err := ctx.Flood(specs[i].origin, specs[i].criteria, 4, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res
	}

	got := make([]*FloodResult, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := nw.NewFloodCtx()
			for i := w; i < trials; i += workers {
				got[i], errs[i] = c.Flood(specs[i].origin, specs[i].criteria, 4, rng.New(uint64(i)))
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], baseline[i]) {
			t.Fatalf("trial %d diverged under concurrency:\n%+v\nvs\n%+v", i, got[i], baseline[i])
		}
	}
}

// TestFloodEpochWrapSurvives forces the epoch counter through its wrap and
// checks floods before and after agree.
func TestFloodEpochWrapSurvives(t *testing.T) {
	nw := pinNet(t)
	ctx := nw.NewFloodCtx()
	before, err := ctx.Flood(0, "target", 3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	ctx.epoch = 1<<31 - 3 // two bumps from the wrap
	for i := 0; i < 4; i++ {
		after, err := ctx.Flood(0, "target", 3, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("wrap bump %d diverged: %+v vs %+v", i, before, after)
		}
	}
	if ctx.epoch >= 1<<31-1 || ctx.epoch < 1 {
		t.Fatalf("epoch did not wrap cleanly: %d", ctx.epoch)
	}
}

func BenchmarkFloodCtx(b *testing.B) {
	for _, peers := range []int{500, 2000} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			nw := benchNet(b, peers)
			criteria := ""
			for _, p := range nw.Peers {
				if len(p.Library) > 0 {
					criteria = p.Library[0].Name
					break
				}
			}
			ctx := nw.NewFloodCtx()
			r := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctx.Flood(i%peers, criteria, 4, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchNet is populatedNet for benchmarks.
func benchNet(b *testing.B, peers int) *Network {
	b.Helper()
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 5, Peers: peers, UniqueObjects: peers * 25, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := NewFromCatalogWorkers(DefaultConfig(5), cat, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the term indexes (and the flood path's rarest-first term
	// frequencies) so the benchmark measures the flood loop.
	if err := nw.BuildIndexes(0); err != nil {
		b.Fatal(err)
	}
	return nw
}
