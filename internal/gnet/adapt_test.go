package gnet

import (
	"reflect"
	"testing"

	"querycentric/internal/rng"
)

// TestPathCaptureChangesNothing pins the capture contract: a flood with
// answer-path recording enabled returns the identical FloodResult to one
// without, and every reconstructed path is a valid overlay route from the
// origin to the answering peer with length matching the hit's hop count.
func TestPathCaptureChangesNothing(t *testing.T) {
	nw := populatedNet(t, 200)
	plain := nw.NewFloodCtx()
	captured := nw.NewFloodCtx()
	captured.SetPathCapture(true)

	paths := 0
	for origin := 0; origin < 25; origin++ {
		criteria := fileOf(t, nw, origin*17+3)
		ra, err := plain.Flood(origin, criteria, 4, rng.New(uint64(origin)))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := captured.Flood(origin, criteria, 4, rng.New(uint64(origin)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("path capture perturbed flood from %d:\n%+v\nvs\n%+v", origin, ra, rb)
		}
		if plain.AnswerPath(origin) != nil {
			t.Fatal("AnswerPath returned a path with capture disabled")
		}
		for _, h := range rb.Hits {
			path := captured.AnswerPath(h.PeerID)
			if path == nil {
				t.Fatalf("no path to answering peer %d", h.PeerID)
			}
			if path[0] != origin || path[len(path)-1] != h.PeerID {
				t.Fatalf("path %v does not run origin %d → peer %d", path, origin, h.PeerID)
			}
			if len(path)-1 != h.Hops {
				t.Fatalf("path %v has %d edges, hit reported %d hops", path, len(path)-1, h.Hops)
			}
			for i := 0; i+1 < len(path); i++ {
				if !nw.connected(path[i], path[i+1]) {
					t.Fatalf("path %v uses missing edge %d–%d", path, path[i], path[i+1])
				}
			}
			paths++
		}
	}
	if paths == 0 {
		t.Fatal("no hits produced any answer paths; workload too weak to test capture")
	}
}

// TestAnswerPathUnreachedPeer covers the miss cases: peers the flood never
// processed, out-of-range IDs, and the origin itself.
func TestAnswerPathUnreachedPeer(t *testing.T) {
	nw := populatedNet(t, 120)
	ctx := nw.NewFloodCtx()
	ctx.SetPathCapture(true)
	res, err := ctx.Flood(0, fileOf(t, nw, 7), 2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.AnswerPath(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("origin path = %v, want [0]", got)
	}
	if ctx.AnswerPath(-1) != nil || ctx.AnswerPath(len(nw.Peers)) != nil {
		t.Fatal("out-of-range peer produced a path")
	}
	if res.PeersReached < len(nw.Peers)-1 {
		// Some peer was not reached; it must have no path.
		seen := make(map[int]bool, res.PeersReached)
		for id := range nw.Peers {
			if ctx.AnswerPath(id) != nil {
				seen[id] = true
			}
		}
		if len(seen) != res.PeersReached+1 { // +1 for the origin
			t.Fatalf("%d peers have paths, flood reached %d", len(seen), res.PeersReached)
		}
	}
}

// TestAddFileRebuildsIndex pins the replication mutation contract: an
// installed copy is found by the peer's own Match and by floods, through
// the peer's re-encoded index (or, when the dictionary predates the name,
// the re-interned network's).
func TestAddFileRebuildsIndex(t *testing.T) {
	nw := populatedNet(t, 120)
	name := fileOf(t, nw, 11)
	// Find a peer that does not match the name yet.
	target := -1
	for id := range nw.Peers {
		if len(nw.Peers[id].Match(name)) == 0 {
			target = id
			break
		}
	}
	if target < 0 {
		t.Fatal("every peer already matches the probe name")
	}
	before := len(nw.Peers[target].Library)
	if err := nw.AddFile(target, name, 4096); err != nil {
		t.Fatal(err)
	}
	p := nw.Peers[target]
	if len(p.Library) != before+1 {
		t.Fatalf("library grew to %d, want %d", len(p.Library), before+1)
	}
	if got := p.Match(name); len(got) == 0 {
		t.Fatal("peer does not match the installed file after index rebuild")
	}
	// A name the dictionary has never seen re-interns the network.
	if err := nw.AddFile(target, "zzqx unseen replica token", 1); err != nil {
		t.Fatal(err)
	}
	if got := p.Match("zzqx unseen"); len(got) == 0 {
		t.Fatal("peer does not match a post-construction name after re-interning")
	}
	// Floods see the new copy through the new dictionary.
	neighbor := p.Neighbors[0]
	res, err := nw.NewFloodCtx().Flood(neighbor, "zzqx unseen replica token", 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalResults == 0 {
		t.Fatal("flood from a neighbor missed the installed file")
	}
	// Out-of-range and empty-name mutations are rejected.
	if err := nw.AddFile(-1, "x", 1); err == nil {
		t.Error("negative peer accepted")
	}
	if err := nw.AddFile(len(nw.Peers), "x", 1); err == nil {
		t.Error("out-of-range peer accepted")
	}
	if err := nw.AddFile(0, "", 1); err == nil {
		t.Error("empty name accepted")
	}
}
