package gnet

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"querycentric/internal/dict"
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
	}
}

// TestHolderStampsSurviveEpochWrap forces a context to the brink of the
// epoch wrap and floods across it. The first flood of a fresh context runs
// at epoch 1 and the first flood after the wrap runs at epoch 1 again, so
// unless bump clears the candidate stamps the second query's candidates
// would include every holder of the first query's rarest term.
func TestHolderStampsSurviveEpochWrap(t *testing.T) {
	nw := populatedNet(t, 120)
	if err := nw.BuildIndexes(2); err != nil {
		t.Fatal(err)
	}
	first, second := fileOf(t, nw, 3), fileOf(t, nw, 70)
	if first == second {
		t.Fatal("fixture yields one file name for both queries")
	}
	ctx := nw.NewFloodCtx()
	if _, err := ctx.Flood(0, first, 4, rng.New(1)); err != nil {
		t.Fatal(err)
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
	var stamped []int32
	for i, e := range ctx.cand {
		if e == ctx.epoch {
			stamped = append(stamped, int32(i))
		}
	}
	// selectHolders left the query's IDs rarest first.
	if want := holdersOf(t, nw, ctx.qids[0]); !reflect.DeepEqual(stamped, want) {
		t.Fatalf("candidates after the wrap %v, holders of the rarest term %v", stamped, want)
	}
}
