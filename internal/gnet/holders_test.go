package gnet

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"querycentric/internal/capacity"
	"querycentric/internal/dict"
	"querycentric/internal/faults"
	"querycentric/internal/rng"
	"querycentric/internal/vpost"
)

// holdersOf decodes term id's holder list through the vpost cursor (the
// layout contract: a holder list is a vpost body), independently of the
// inlined decode selectHolders runs.
func holdersOf(t *testing.T, nw *Network, id dict.TermID) []int32 {
	t.Helper()
	list := nw.holders.list(id)
	n := 0 // every varint ends on its one byte below 0x80
	for _, b := range list {
		if b < 0x80 {
			n++
		}
	}
	if len(list) > 0 && list[len(list)-1] >= 0x80 {
		t.Fatalf("term %d: holder list ends mid-varint", id)
	}
	c := vpost.NewCursor(list, n)
	var out []int32
	for v, ok := c.Next(); ok; v, ok = c.Next() {
		out = append(out, v)
	}
	if c.Err() != nil || len(out) != n {
		t.Fatalf("term %d: holder list decodes %d of %d entries (%v)", id, len(out), n, c.Err())
	}
	return out
}

// stampedCandidates lists the peers the context's last flood stamped as
// worth a probe, ascending.
func stampedCandidates(c *FloodCtx) []int32 {
	var out []int32
	for i, e := range c.cand {
		if e == c.epoch {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestHolderIndexInvertsPeerIndexes pins the holder index to its
// definition — holders(t) is exactly the set of shared-dictionary peers
// whose posting index holds t, ascending — on a built network, on one
// restored from exported state (the Save → Load path below the file
// format) and on one where a peer was pushed onto a local dictionary before
// the build: that peer must be flagged unlisted and appear in no list. The
// index's bytes must not depend on the worker count or on build vs. restore.
func TestHolderIndexInvertsPeerIndexes(t *testing.T) {
	build := func(workers int, mutate bool) *Network {
		nw := populatedNet(t, 90)
		if mutate {
			p := nw.Peers[7]
			p.Library = append(p.Library, File{Index: uint32(len(p.Library)), Size: 9, Name: "Zzzz Novel Tokens Everywhere.mp3"})
		}
		if err := nw.BuildIndexes(workers); err != nil {
			t.Fatal(err)
		}
		return nw
	}
	sameBytes := func(what string, a, b *Network) {
		t.Helper()
		if !reflect.DeepEqual(a.holders.off, b.holders.off) || !bytes.Equal(a.holders.arena, b.holders.arena) {
			t.Fatalf("%s: holder index bytes differ", what)
		}
	}
	clean, mutated := build(1, false), build(1, true)
	st, err := populatedNet(t, 90).ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromState(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes("restored vs built", restored, clean)
	for _, w := range []int{2, 8} {
		sameBytes("workers vs 1, clean", build(w, false), clean)
		sameBytes("workers vs 1, mutated", build(w, true), mutated)
	}
	if !mutated.Peers[7].unlisted {
		t.Fatal("the peer with a novel file name was not flagged unlisted")
	}

	for name, nw := range map[string]*Network{"built": clean, "restored": restored, "mutated": mutated} {
		if len(nw.holders.off) != nw.dict.Len()+1 {
			t.Fatalf("%s: %d offsets for %d terms", name, len(nw.holders.off), nw.dict.Len())
		}
		for id := dict.TermID(0); int(id) < nw.dict.Len(); id++ {
			var want []int32
			for i, p := range nw.Peers {
				if _, ok := p.idx.lookup(id); ok && p.dict == nw.dict {
					want = append(want, int32(i))
				}
			}
			if got := holdersOf(t, nw, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: holders(%q) = %v, peers holding it %v", name, nw.dict.Term(id), got, want)
			}
		}
		for _, p := range nw.Peers {
			if p.unlisted != (p.dict != nw.dict) {
				t.Fatalf("%s: peer %d unlisted=%v, on a local dictionary=%v", name, p.ID, p.unlisted, p.dict != nw.dict)
			}
		}
		checkUnlisted(t, nw)
	}
}

// TestHolderStampsSurviveEpochWrap forces a context to the brink of the
// epoch wrap and floods across it — plain, lossy and under RED admission,
// so every stamp array a gate allocates on first use is in play. The first
// flood of a fresh context runs at epoch 1 and the first flood after the
// wrap runs at epoch 1 again, so unless bump clears whatever arrays exist
// the second query's candidates would include every holder of the first
// query's rarest term, and its loss rolls and admission draws would carry on
// from the first flood's per-peer attempt counts.
func TestHolderStampsSurviveEpochWrap(t *testing.T) {
	for _, mode := range []string{"plain", "lossy", "capacity"} {
		t.Run(mode, func(t *testing.T) {
			nw := populatedNet(t, 120)
			if err := nw.BuildIndexes(2); err != nil {
				t.Fatal(err)
			}
			first, second := fileOf(t, nw, 3), fileOf(t, nw, 70)
			if first == second {
				t.Fatal("fixture yields one file name for both queries")
			}
			switch mode {
			case "lossy":
				nw.SetFaults(faults.New(faults.Config{Seed: 11, MessageLoss: 0.3}))
			case "capacity":
				// RED draws per (flood, peer, attempt) while a queue is between
				// half full and full: four floods leave every queue there.
				cfg := capacity.DefaultConfig(11)
				cfg.QueueDepth, cfg.Policy = 6, capacity.RED
				plane, err := capacity.New(cfg, len(nw.Peers))
				if err != nil {
					t.Fatal(err)
				}
				nw.SetCapacity(plane)
				for i := 0; i < 4; i++ {
					if _, err := nw.Flood(i*11, first, 4, rng.New(uint64(i))); err != nil {
						t.Fatal(err)
					}
				}
				plane.Commit(5)
				plane.Advance(5)
			}
			ctx := nw.NewFloodCtx()
			if _, err := ctx.Flood(0, first, 4, rng.New(1)); err != nil {
				t.Fatal(err)
			}
			if (ctx.loss != nil) != (mode == "lossy") || (ctx.admits != nil) != (mode == "capacity") {
				t.Fatalf("gate state allocated for gates that are not live: loss=%v admits=%v", ctx.loss != nil, ctx.admits != nil)
			}
			ctx.epoch = math.MaxInt32 - 1
			got, err := ctx.Flood(5, second, 4, rng.New(2))
			if err != nil {
				t.Fatal(err)
			}
			if ctx.epoch != 1 {
				t.Fatalf("epoch %d after the wrap, want 1", ctx.epoch)
			}
			want, err := floodNaive(nw, 5, second, 4, rng.New(2))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("flood across the wrap diverged from reference:\n%+v\nvs\n%+v", got, want)
			}
			// selectHolders left the query's IDs rarest first.
			stamped := stampedCandidates(ctx)
			if want := holdersOf(t, nw, ctx.qids[0]); !reflect.DeepEqual(stamped, want) {
				t.Fatalf("candidates after the wrap %v, holders of the rarest term %v", stamped, want)
			}
		})
	}
}

// TestUnlistedListInvariants pins the network's unlisted list — what a gated
// flood stamps in place of loading a flag from every peer it reaches — to
// the flags it mirrors: a peer pushed onto a local dictionary before the
// build and one AddFile changed afterwards are both listed, once each
// however often AddFile runs; both are probed by a gated flood although the
// holder index names neither; a second BuildIndexes changes nothing; and a
// restored network starts with the list a fresh build gives.
func TestUnlistedListInvariants(t *testing.T) {
	const novel = "Zzzz Novel Tokens Everywhere.mp3"
	nw := populatedNet(t, 90)
	p := nw.Peers[7]
	p.Library = append(p.Library, File{Index: uint32(len(p.Library)), Size: 9, Name: novel})
	if err := nw.BuildIndexes(2); err != nil {
		t.Fatal(err)
	}
	wantList := func(when string, want ...int32) {
		t.Helper()
		checkUnlisted(t, nw)
		if !slices.Equal(nw.unlisted, want) {
			t.Fatalf("%s: unlisted list %v, want %v", when, nw.unlisted, want)
		}
	}
	wantList("after the build", 7)
	for _, name := range []string{novel, fileOf(t, nw, 5)} {
		if err := nw.AddFile(40, name, 9); err != nil {
			t.Fatal(err)
		}
	}
	wantList("after two AddFiles on one peer", 7, 40)

	// No shared-dictionary peer holds these terms, so the flood is gated
	// and stamps no holder: only the listed peers are asked.
	ctx := nw.NewFloodCtx()
	got, err := ctx.Flood(0, "zzzz novel", 7, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := floodNaive(nw, 0, "zzzz novel", 7, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gated flood diverged from reference:\n%+v\nvs\n%+v", got, want)
	}
	answered := []int{}
	for _, h := range got.Hits {
		answered = append(answered, h.PeerID)
	}
	slices.Sort(answered)
	if !slices.Equal(answered, []int{7, 40}) {
		t.Fatalf("peers answering for the novel terms %v, want [7 40]", answered)
	}
	if stamped := stampedCandidates(ctx); !slices.Equal(stamped, []int32{7, 40}) {
		t.Fatalf("a flood no holder can answer stamped %v, want the unlisted peers [7 40]", stamped)
	}

	if err := nw.BuildIndexes(2); err != nil {
		t.Fatal(err)
	}
	wantList("after a second BuildIndexes", 7, 40)

	fresh := populatedNet(t, 90)
	st, err := fresh.ExportState() // builds fresh's indexes and holder index
	if err != nil {
		t.Fatal(err)
	}
	if nw, err = NewFromState(st, 2); err != nil {
		t.Fatal(err)
	}
	wantList("restored", fresh.unlisted...)
}
