package gnet

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"querycentric/internal/capacity"
	"querycentric/internal/faults"
	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// The gates a flood can carry, as bits of FuzzFloodVsNaive's first input.
// The table test above runs them one at a time; the fuzz target runs every
// subset, which is what overload_scenario does.
const (
	gateQRP      = 1 << iota // route tables, last-hop filtering
	gateLoss                 // 20% message loss
	gateLiveness             // a liveness mask with a fifth of the peers dead
	gateCapacity             // TTL-aware shedding with breakers, warmed into backlog
	gatePaths                // answer-path capture
	gateObs                  // registry and hop-trace recorder attached
	gateBuilt                // BuildIndexes (holder-gated floods) vs no holder index
	gateMutated              // AddFile after the build, which drops the holder index
	gateAll      = gateMutated<<1 - 1
)

// FuzzFloodVsNaive holds FloodCtx.Flood to the map-and-slice reference
// under an arbitrary subset of its gates: the fuzz input picks the subset,
// the topology (two-tier or flat), the network size, the origin, a TTL of
// 1–5 and the shape of the query — whose bit 3 rebuilds the holder index
// after the AddFile gate and whose bit 4 assembles the network by hand
// (New plus the catalog's libraries) instead of building it from the
// catalog. With the AddFile gate and the common-term query, one flood runs
// before the AddFiles so offset columns exist when the arenas change. Every
// flood must equal floodNaive's result field for field; with
// capture on every hit needs a real overlay path of the length its Hops
// claim; with a recorder attached the recorded rings must add up to the
// flood's reach.
func FuzzFloodVsNaive(f *testing.F) {
	f.Add(uint8(0), false, uint8(60), uint16(3), uint8(3), uint8(0))
	f.Add(uint8(gateAll), false, uint8(60), uint16(11), uint8(3), uint8(2))
	f.Add(uint8(gateAll), true, uint8(20), uint16(5), uint8(4), uint8(0))
	for i := uint8(0); i < 8; i++ { // each gate alone
		f.Add(uint8(1)<<i, false, uint8(40), uint16(i), 2+i%3, i)
	}
	f.Add(uint8(gateBuilt|gateMutated), false, uint8(60), uint16(3), uint8(3), uint8(8))   // AddFile, then BuildIndexes
	f.Add(uint8(0), true, uint8(50), uint16(9), uint8(3), uint8(16))                       // by hand, indexed as adaptive.New does
	f.Add(uint8(gateQRP|gateMutated), false, uint8(70), uint16(4), uint8(4), uint8(16+6))  // by hand, indexed by EnableQRP
	f.Add(uint8(gateBuilt|gateMutated), false, uint8(60), uint16(3), uint8(3), uint8(8+5)) // columns built, AddFile, BuildIndexes, all-dense floods
	f.Fuzz(func(t *testing.T, gates uint8, flat bool, size uint8, origin uint16, ttl, shape uint8) {
		peers := 30 + int(size)%90
		cfg := DefaultConfig(5)
		if flat {
			cfg = Config{Seed: 5, FlatDegree: 4}
		}
		on := func(g uint8) bool { return gates&g != 0 }
		var nw *Network
		if shape&16 == 0 {
			nw = populatedNetWith(t, cfg, peers)
		} else {
			nw = handAssembled(t, cfg, peers)
			if !on(gateBuilt) && !on(gateQRP) {
				if _, err := nw.NewFloodCtx().Flood(0, fileOf(t, nw, 0), 2, rng.New(1)); !errors.Is(err, ErrNotIndexed) {
					t.Fatalf("flood over a network never indexed: err %v, want ErrNotIndexed", err)
				}
				// What adaptive.New runs on the network it is given.
				if err := nw.BuildIndexes(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if on(gateBuilt) {
			if err := nw.BuildIndexes(2); err != nil {
				t.Fatal(err)
			}
		}
		if on(gateQRP) {
			if err := nw.EnableQRP(12); err != nil {
				t.Fatal(err)
			}
		}
		novel := "zzqx unseen replica token"
		if on(gateMutated) {
			if shape%8 == 5 && nw.holders.off != nil {
				// An all-dense flood first, so the holder index holds the
				// common term's offset column when AddFile re-encodes the
				// arenas it points into: the floods checked below must not
				// read it, with or without the rebuild.
				if _, err := nw.NewFloodCtx().Flood(0, commonTerm(nw), 3, rng.New(1)); err != nil {
					t.Fatal(err)
				}
				if len(nw.holders.cols.col) == 0 {
					t.Fatal("an all-dense flood built no offset column")
				}
			}
			// After EnableQRP: the route tables must follow the new names.
			// The novel replica re-interns the network, the known one
			// re-encodes its peer. With shape's fourth bit BuildIndexes runs
			// again, so the rebuilt holder index gates the floods checked
			// below.
			for _, id := range []int{1, peers / 2, peers - 1} {
				if err := nw.AddFile(id, novel, 1); err != nil {
					t.Fatal(err)
				}
				if err := nw.AddFile((id+7)%peers, fileOf(t, nw, 5), 4096); err != nil {
					t.Fatal(err)
				}
			}
			if nw.holders.off != nil {
				t.Fatal("AddFile left the holder index built")
			}
			if shape&8 != 0 {
				if err := nw.BuildIndexes(2); err != nil {
					t.Fatal(err)
				}
				if nw.holders.off == nil {
					t.Fatal("BuildIndexes built no holder index")
				}
			}
		}
		if on(gateLoss) || on(gateLiveness) {
			fc := faults.Config{Seed: 11}
			if on(gateLoss) {
				fc.MessageLoss = 0.2
			}
			plane := faults.New(fc)
			if on(gateLiveness) {
				// A mask shorter than the population: peers past its end are alive.
				mask := make([]bool, peers-peers/8)
				r := rng.New(uint64(size))
				for i := range mask {
					mask[i] = !r.Bool(0.2)
				}
				plane.SetLiveness(mask)
			}
			nw.SetFaults(plane)
		}
		ctx := nw.NewFloodCtx()
		ctx.SetPathCapture(on(gatePaths))
		if on(gateCapacity) {
			cc := capacity.DefaultConfig(11)
			cc.QueueDepth, cc.Policy, cc.Breakers = 4, capacity.TTLAware, true
			cc.BreakerWindow, cc.BreakerTrip = 4, 2
			cp, err := capacity.New(cc, peers)
			if err != nil {
				t.Fatal(err)
			}
			nw.SetCapacity(cp)
			// Fold a few phases of traffic into queue depth so the checked
			// floods meet backlog, shedding and open breakers.
			for phase := int64(1); phase <= 3; phase++ {
				for i := 0; i < 12; i++ {
					if _, err := ctx.Flood((i*7+int(origin))%peers, fileOf(t, nw, i), 4, rng.New(uint64(i))); err != nil {
						t.Fatal(err)
					}
				}
				cp.Commit(phase * 5)
				cp.Advance(phase * 5)
			}
		}

		var traces *obs.FloodTraces
		if on(gateObs) {
			traces = obs.NewFloodTraces(4)
			nw.Instrument(obs.NewRegistry(), traces)
		}

		name := fileOf(t, nw, int(origin)*13+2)
		toks := TokenizeQuery(name)
		var criteria string
		switch shape % 8 {
		case 0:
			criteria = name // every term known
		case 1:
			criteria = strings.Join(toks[:min(2, len(toks))], " ") // a short query: longer holder lists
		case 2:
			criteria = name + " zqxjkwv" // one term no dictionary knows
		case 3:
			criteria = "!! ?" // keywordless
		case 4:
			criteria = name + " " + toks[0] // duplicate tokens
		case 5:
			criteria = commonTerm(nw) // held by a large share: the dense path (scanned only here: it reads every library)
		case 6:
			criteria = novel // a replica AddFile placed (when mutated)
		case 7:
			criteria = novel + " " + name // matches nowhere, resolves everywhere
		}
		hops := 1 + int(ttl)%5
		byOrigin := map[int]*FloodResult{}
		for k := 0; k < 2; k++ { // the second flood reuses the context's stamps
			o := (int(origin) + k*17) % peers
			want, err := floodNaive(nw, o, criteria, hops, rng.New(uint64(origin)+uint64(k)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ctx.Flood(o, criteria, hops, rng.New(uint64(origin)+uint64(k)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gates=%08b flat=%v peers=%d origin=%d ttl=%d %q: flood diverged from reference:\n%+v\nvs\n%+v",
					gates, flat, peers, o, hops, criteria, got, want)
			}
			if on(gatePaths) {
				for _, h := range got.Hits {
					checkAnswerPath(t, nw, ctx, o, h)
				}
			}
			byOrigin[o] = got
		}
		if on(gateObs) && traces.Len() != len(byOrigin) {
			t.Fatalf("%d floods left %d traces", len(byOrigin), traces.Len())
		}
		for _, tr := range traces.Snapshot() {
			res, sum := byOrigin[tr.Origin], 0
			for _, n := range tr.PerRing {
				sum += n
			}
			if len(tr.PerRing) > hops || sum != res.PeersReached || tr.Messages != res.Messages || tr.Results != res.TotalResults {
				t.Fatalf("trace %+v does not add up to its flood %+v", tr, res)
			}
		}
	})
}

// handAssembled is populatedNetWith's network assembled by hand: New plus
// the catalog's libraries, never indexed.
func handAssembled(t *testing.T, cfg Config, peers int) *Network {
	t.Helper()
	nw, err := New(cfg, peers)
	if err != nil {
		t.Fatal(err)
	}
	sizes := NewFileSizeRNG(cfg.Seed)
	for id, lib := range sharedCatalog(t, peers).Libraries {
		files := make([]File, len(lib))
		for i, name := range lib {
			files[i] = File{Index: uint32(i), Size: DrawFileSize(sizes), Name: name}
		}
		nw.Peers[id].Library = files
	}
	return nw
}

// checkAnswerPath requires the captured path of hit h to be a real overlay
// route: origin first, the answering peer last, every step an edge, and as
// many steps as the hit's hop count.
func checkAnswerPath(t *testing.T, nw *Network, ctx *FloodCtx, origin int, h Hit) {
	t.Helper()
	path := ctx.AnswerPath(h.PeerID)
	if len(path) != h.Hops+1 || path[0] != origin || path[len(path)-1] != h.PeerID {
		t.Fatalf("answer path %v for hit at peer %d, %d hops from origin %d", path, h.PeerID, h.Hops, origin)
	}
	for i := 1; i < len(path); i++ {
		if !nw.connected(path[i-1], path[i]) {
			t.Fatalf("answer path %v steps over a non-edge %d–%d", path, path[i-1], path[i])
		}
	}
}

// commonTerm returns the file-name term held by the most peers (ties to
// the lexically first), found by scanning the libraries.
func commonTerm(nw *Network) string {
	holders := map[string]int{}
	for _, p := range nw.Peers {
		mine := map[string]bool{}
		for _, f := range p.Library {
			for _, tok := range TokenizeQuery(f.Name) {
				mine[tok] = true
			}
		}
		for tok := range mine {
			holders[tok]++
		}
	}
	best := ""
	for tok, n := range holders {
		if n > holders[best] || (n == holders[best] && tok < best) {
			best = tok
		}
	}
	return best
}
