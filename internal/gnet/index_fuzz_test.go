package gnet

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/dict"
	"querycentric/internal/rng"
	"querycentric/internal/terms"
)

// buildPostingsNaive is the index construction the ID-based encoder
// replaced, kept as its reference: tokenize every file name again, resolve
// each token through d.Lookup, dedupe per file, and sort the (term, file)
// pairs with sort.Slice. It reports ok=false on a token d does not know.
func buildPostingsNaive(d *dict.Dict, lib []File) (IndexState, bool) {
	type termFile struct {
		id   dict.TermID
		file int32
	}
	var pairs []termFile
	for i, f := range lib {
		var fileIDs []dict.TermID
		for _, tok := range terms.Tokenize(f.Name) {
			id, known := d.Lookup(tok)
			if !known {
				return IndexState{}, false
			}
			if !slices.Contains(fileIDs, id) {
				fileIDs = append(fileIDs, id)
				pairs = append(pairs, termFile{id: id, file: int32(i)})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].id != pairs[b].id {
			return pairs[a].id < pairs[b].id
		}
		return pairs[a].file < pairs[b].file
	})
	keys := make([]uint64, len(pairs))
	for i, p := range pairs {
		keys[i] = uint64(p.id)<<32 | uint64(uint32(p.file))
	}
	return new(IndexBuilder).encode(keys), true
}

// fuzzTokens and fuzzSeps are what FuzzIndexFromIDsVsTokenized builds names
// from: ASCII and Unicode tokens (some that change byte length or leave
// ASCII when lowered, some too short to keep) and separators of every
// width, invalid UTF-8 among them.
var (
	fuzzTokens = []string{"alpha", "Beta", "GAMMA", "beta", "ünï", "STRAẞE", "日本", "x", "42", "a1",
		"Ⱥb", "Kelvin", "İz", "Ab", "Track", "mp3"}
	fuzzSeps = []string{" ", "-", ".", "_", "\xff", " — ", " "}
)

// fuzzName draws a file name of 0–5 pool tokens (repeats allowed, so a name
// can hold one token several times; zero tokens leaves a name of
// separators or the empty string).
func fuzzName(r *rng.Source) string {
	var b strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		b.WriteString(fuzzTokens[r.Intn(len(fuzzTokens))])
		b.WriteString(fuzzSeps[r.Intn(len(fuzzSeps))])
	}
	return b.String()
}

// FuzzIndexFromIDsVsTokenized holds every ID-based construction path to
// buildPostingsNaive over random libraries — Unicode names, repeated tokens
// within a name, token-less names, empty libraries — interned by 1–8
// shards: a catalog network's born indexes, the single-interner
// IndexBuilder path the sharded snapshot builder takes, and AddFile's two
// paths (one peer re-encoded against the dictionary for a name of known
// terms, the whole network re-interned for a novel one). A size of 240 or
// more gives peer 0 a library of radixMinKeys names, past IndexBuilder's
// radix cutoff (committed input radix-library). Every index must be
// byte-equal to the reference's, every dictionary equal to a fresh build's
// over the same libraries, and every holder list equal to the peers whose
// reference index holds the term.
func FuzzIndexFromIDsVsTokenized(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(1), false)
	f.Add(uint64(2), uint8(7), uint8(3), true)
	f.Add(uint64(3), uint8(40), uint8(8), false)
	f.Add(uint64(4), uint8(0), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, size, shards uint8, novel bool) {
		r := rng.New(seed)
		peers := 2 + int(size)%40
		workers := 1 + int(shards)%8
		libs := make([][]string, peers)
		for p := range libs {
			n := r.Intn(8) // 0 leaves the library empty
			if p == 0 && size >= 240 {
				n = radixMinKeys // about 2.3 distinct tokens a name: the radix path
			}
			for ; n > 0; n-- {
				libs[p] = append(libs[p], fuzzName(r))
			}
		}
		nw, err := NewFromCatalogWorkers(DefaultConfig(seed), &catalog.Catalog{Libraries: libs}, workers)
		if err != nil {
			t.Fatal(err)
		}
		// matchesReference holds the network's dictionary, every index and
		// every holder list to references rebuilt from libs.
		matchesReference := func(stage string) []IndexState {
			t.Helper()
			if err := nw.BuildIndexes(workers); err != nil {
				t.Fatal(err)
			}
			if d, _ := dict.Build(libs, 1); d.Checksum() != nw.dict.Checksum() || d.Len() != nw.dict.Len() {
				t.Fatalf("%s: the network's dictionary differs from a fresh build's", stage)
			}
			ref := make([]IndexState, peers)
			for i, p := range nw.Peers {
				if p.dict != nw.dict {
					t.Fatalf("%s: peer %d matches through another dictionary", stage, i)
				}
				var ok bool
				if ref[i], ok = buildPostingsNaive(nw.dict, p.Library); !ok {
					t.Fatalf("%s: peer %d: the dictionary misses a library token", stage, i)
				}
				if got, want := p.idx, ref[i]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: peer %d (%d shards): index %+v, reference %+v", stage, i, workers, got, want)
				}
			}
			for id := dict.TermID(0); int(id) < nw.dict.Len(); id++ {
				var want []int32
				for i := range ref {
					if _, ok := ref[i].lookup(id); ok {
						want = append(want, int32(i))
					}
				}
				if got := holdersOf(t, nw, id); !slices.Equal(got, want) {
					t.Fatalf("%s: term %q: holders %v, reference %v", stage, nw.dict.Term(id), got, want)
				}
			}
			return ref
		}
		ref := matchesReference("born")

		// The sharded snapshot builder's path: one interner over every
		// placement, one Merge, IndexBuilder per library.
		in := dict.NewInterner()
		var ids []dict.TermID
		offs := make([][]uint32, peers)
		for p, lib := range libs {
			offs[p] = []uint32{uint32(len(ids))}
			for _, name := range lib {
				ids = in.AppendIDs(ids, name)
				offs[p] = append(offs[p], uint32(len(ids)))
			}
		}
		d, remaps := dict.Merge([]*dict.Interner{in}, workers)
		if d.Checksum() != nw.dict.Checksum() || d.Len() != nw.dict.Len() {
			t.Fatal("single-interner dictionary differs from the sharded build's")
		}
		var b IndexBuilder
		for p := range libs {
			if got, want := b.Build(ids, offs[p], remaps[0]), ref[p]; !reflect.DeepEqual(got, want) {
				t.Fatalf("peer %d: IndexBuilder %+v, reference %+v", p, got, want)
			}
		}

		// A library grown after construction is indexed at once: re-encoded
		// against the dictionary when it knows every term of the name,
		// re-interned with the whole network when it does not.
		name := fuzzName(r)
		if novel {
			name += " Zzqx"
		}
		if name == "" {
			name = "-"
		}
		_, known := nw.dict.Resolve(terms.Tokenize(name), nil)
		before := nw.dict
		if err := nw.AddFile(0, name, 1); err != nil {
			t.Fatal(err)
		}
		if reinterned := nw.dict != before; reinterned == known || novel && known {
			t.Fatalf("AddFile(%q): re-interned = %v, every token known = %v", name, reinterned, known)
		}
		libs[0] = append(libs[0], name)
		matchesReference("AddFile(" + name + ")")
	})
}
