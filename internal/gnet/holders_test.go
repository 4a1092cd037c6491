package gnet

import (
	"bytes"
	"math"
	"reflect"
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
// format). A network where a peer was pushed onto a local dictionary before
// the build must get no index at all, at any worker count: a list that
// omitted the peer would hide its answers. The index's bytes must not depend
// on the worker count or on build vs. restore.
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
	clean := build(1, false)
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
		sameBytes("workers vs 1", build(w, false), clean)
	}
	for _, w := range []int{1, 2, 8} {
		if mutated := build(w, true); mutated.Peers[7].dict == mutated.dict || mutated.holders.off != nil {
			t.Fatalf("workers=%d: a peer on a local dictionary (%v) left a holder index built (%v)",
				w, mutated.Peers[7].dict != mutated.dict, mutated.holders.off != nil)
		}
	}

	for name, nw := range map[string]*Network{"built": clean, "restored": restored} {
		if len(nw.holders.off) != nw.dict.Len()+1 {
			t.Fatalf("%s: %d offsets for %d terms", name, len(nw.holders.off), nw.dict.Len())
		}
		for id := dict.TermID(0); int(id) < nw.dict.Len(); id++ {
			var want []int32
			for i, p := range nw.Peers {
				if _, ok := p.idx.lookup(id); ok {
					want = append(want, int32(i))
				}
			}
			if got := holdersOf(t, nw, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: holders(%q) = %v, peers holding it %v", name, nw.dict.Term(id), got, want)
			}
		}
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
					if _, err := nw.NewFloodCtx().Flood(i*11, first, 4, rng.New(uint64(i))); err != nil {
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

// TestMutationDropsHolderIndex pins the holder index's one staleness rule:
// AddFile drops the index, so the floods that follow probe every peer they
// reach and equal the reference; BuildIndexes then rebuilds lists equal to a
// fresh build's over the same libraries while every peer stays on the shared
// dictionary, and builds none once a replica's novel terms push a peer onto a
// local dictionary.
func TestMutationDropsHolderIndex(t *testing.T) {
	const novel = "Zzzz Novel Tokens Everywhere.mp3"
	nw := populatedNet(t, 90)
	if err := nw.BuildIndexes(2); err != nil {
		t.Fatal(err)
	}
	known := fileOf(t, nw, 5)
	trial := uint64(0)
	matchesReference := func(when string, wantIndex bool, criteria ...string) {
		t.Helper()
		if (nw.holders.off != nil) != wantIndex {
			t.Fatalf("%s: holder index built=%v, want %v", when, nw.holders.off != nil, wantIndex)
		}
		ctx := nw.NewFloodCtx()
		for origin := 0; origin < len(nw.Peers); origin += 11 {
			for _, q := range criteria {
				trial++
				got, err := ctx.Flood(origin, q, 5, rng.New(trial))
				if err != nil {
					t.Fatal(err)
				}
				want, err := floodNaive(nw, origin, q, 5, rng.New(trial))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: flood %q from %d diverged from reference:\n%+v\nvs\n%+v", when, q, origin, got, want)
				}
			}
		}
	}

	if err := nw.AddFile(40, known, 9); err != nil {
		t.Fatal(err)
	}
	matchesReference("after AddFile", false, known)

	if err := nw.BuildIndexes(2); err != nil {
		t.Fatal(err)
	}
	fresh := populatedNet(t, 90)
	p := fresh.Peers[40]
	p.Library = append(p.Library, File{Index: uint32(len(p.Library)), Size: 9, Name: known})
	if err := fresh.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nw.holders.off, fresh.holders.off) || !bytes.Equal(nw.holders.arena, fresh.holders.arena) {
		t.Fatal("the rebuilt holder index differs from a fresh build over the same libraries")
	}
	matchesReference("rebuilt", true, known)

	if err := nw.AddFile(7, novel, 9); err != nil {
		t.Fatal(err)
	}
	if err := nw.BuildIndexes(2); err != nil {
		t.Fatal(err)
	}
	matchesReference("a peer on a local dictionary", false, known, "zzzz novel")
	got, err := nw.NewFloodCtx().Flood(0, "zzzz novel", 7, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hits) != 1 || got.Hits[0].PeerID != 7 {
		t.Fatalf("hits for the novel terms %+v, want peer 7 alone", got.Hits)
	}
}
