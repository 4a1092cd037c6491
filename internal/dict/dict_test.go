package dict

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"querycentric/internal/obs"
	"querycentric/internal/parallel"
	"querycentric/internal/qrp"
	"querycentric/internal/terms"
)

func testLibraries() [][]string {
	return [][]string{
		{"Artist One - First Song.mp3", "Artist Two - Second Song [live].mp3"},
		{"artist one - first song.mp3", "01 - Another Band - Track.wma"},
		{"Solo Performer - Deep Cut (remix).ogg"},
		{},
		{"Another Band - Track.wma", "zz_unique_name.flac"},
	}
}

func TestBuildWorkerInvariance(t *testing.T) {
	libs := testLibraries()
	base, _ := Build(libs, 1)
	for _, w := range []int{2, 4, 8} {
		d, _ := Build(libs, w)
		if d.Len() != base.Len() {
			t.Fatalf("workers=%d: %d terms, want %d", w, d.Len(), base.Len())
		}
		if d.Checksum() != base.Checksum() {
			t.Fatalf("workers=%d: checksum %x, want %x", w, d.Checksum(), base.Checksum())
		}
		for id := 0; id < d.Len(); id++ {
			if d.Term(TermID(id)) != base.Term(TermID(id)) {
				t.Fatalf("workers=%d: term %d = %q, want %q",
					w, id, d.Term(TermID(id)), base.Term(TermID(id)))
			}
		}
	}
}

func TestIDsAreSortedAndDense(t *testing.T) {
	d, _ := Build(testLibraries(), 1)
	if d.Len() == 0 {
		t.Fatal("empty dictionary from non-empty libraries")
	}
	for id := 0; id < d.Len(); id++ {
		term := d.Term(TermID(id))
		if id > 0 && term <= d.Term(TermID(id-1)) {
			t.Fatalf("terms not strictly sorted at id %d: %q after %q",
				id, term, d.Term(TermID(id-1)))
		}
		got, ok := d.Lookup(term)
		if !ok || got != TermID(id) {
			t.Fatalf("Lookup(%q) = (%d, %v), want (%d, true)", term, got, ok, id)
		}
	}
}

func TestCoversEveryLibraryToken(t *testing.T) {
	libs := testLibraries()
	d, _ := Build(libs, 1)
	for _, lib := range libs {
		for _, name := range lib {
			for _, tok := range terms.Tokenize(name) {
				if _, ok := d.Lookup(tok); !ok {
					t.Fatalf("library token %q missing from dictionary", tok)
				}
			}
		}
	}
}

func TestResolve(t *testing.T) {
	d, _ := Build(testLibraries(), 1)
	ids, ok := d.Resolve(nil, nil)
	if !ok || len(ids) != 0 {
		t.Fatalf("Resolve(nil) = (%v, %v), want empty ok", ids, ok)
	}
	ids, ok = d.Resolve([]string{"artist", "song"}, nil)
	if !ok || len(ids) != 2 {
		t.Fatalf("Resolve(known) = (%v, %v), want 2 known IDs", ids, ok)
	}
	ids, ok = d.Resolve([]string{"artist", "nosuchterm"}, ids[:0])
	if ok {
		t.Fatal("Resolve with unknown token reported ok")
	}
	if len(ids) != 2 || ids[1] != NoTerm {
		t.Fatalf("Resolve(unknown) = %v, want [_, NoTerm]", ids)
	}
}

// TestLookupMatchesMapReference: every dictionary — built over one or
// three interner shards, or restored by FromRaw over the same arena —
// answers Lookup and Resolve as a map over its terms does: on every term,
// the empty string, tokens sorting before the first and after the last
// term, and every term's proper prefixes and one-byte extensions (the
// near misses a binary search can get wrong).
func TestLookupMatchesMapReference(t *testing.T) {
	libs := append(testLibraries(), []string{"a ab abc abd b ba", "Ünïcödé Straße.ogg"})
	built1, _ := Build(libs, 1)
	built3, _ := Build(libs, 3)
	arena, off := built3.Raw()
	restored, err := FromRaw(arena, off, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]TermID{}
	for id := 0; id < built1.Len(); id++ {
		ref[built1.Term(TermID(id))] = TermID(id)
	}
	first, last := built1.Term(0), built1.Term(TermID(built1.Len()-1))
	probes := []string{"", "\x00", string([]byte{first[0] - 1}), last + "\xff", "\xff"}
	for tok := range ref {
		for i := 0; i < len(tok); i++ {
			probes = append(probes, tok[:i])
		}
		for _, c := range []byte{0, 'a', 'z', 0x7f, 0xff} {
			probes = append(probes, tok+string([]byte{c}))
		}
		probes = append(probes, tok)
	}
	for name, d := range map[string]*Dict{"Build/1": built1, "Build/3": built3, "FromRaw": restored} {
		for _, tok := range probes {
			want, known := ref[tok]
			if !known {
				want = NoTerm
			}
			if got, ok := d.Lookup(tok); got != want || ok != known {
				t.Fatalf("%s: Lookup(%q) = (%d, %v), want (%d, %v)", name, tok, got, ok, want, known)
			}
		}
		ids, ok := d.Resolve(probes, nil)
		allKnown := true
		for i, tok := range probes {
			want, known := ref[tok]
			if !known {
				want, allKnown = NoTerm, false
			}
			if ids[i] != want {
				t.Fatalf("%s: Resolve(probes)[%d] (%q) = %d, want %d", name, i, tok, ids[i], want)
			}
		}
		if ok != allKnown {
			t.Fatalf("%s: Resolve(probes) ok = %v, want %v", name, ok, allKnown)
		}
	}
}

func TestProductMatchesQRPHash(t *testing.T) {
	d, _ := Build(testLibraries(), 4)
	for _, bits := range []uint{8, 16} {
		for id := 0; id < d.Len(); id++ {
			term := d.Term(TermID(id))
			want := qrp.Hash(term, bits)
			if got := d.Slot(TermID(id), bits); got != want {
				t.Fatalf("Slot(%q, %d) = %d, want %d", term, bits, got, want)
			}
		}
	}
}

// TestLazyProducts: dictionaries from Build and FromRaw build
// their QRP hash products on the first Slot call, not before — HeapBytes
// counts them only from then on — and every term's slot at every table
// width is the hash of its term. Eight goroutines race the first call.
func TestLazyProducts(t *testing.T) {
	built, _ := Build(testLibraries(), 3)
	arena, off := built.Raw()
	restored, err := FromRaw(arena, off, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range map[string]func() *Dict{
		"Build": func() *Dict { d, _ := Build(testLibraries(), 3); return d },
		"FromRaw": func() *Dict {
			d, err := FromRaw(arena, off, 2)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	} {
		t.Run(name, func(t *testing.T) {
			d := mk()
			if d.Checksum() != restored.Checksum() {
				t.Fatal("the dictionaries differ")
			}
			before := d.HeapBytes()
			if d.prods.Load() != nil {
				t.Fatal("products built before the first Slot")
			}
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for _, bits := range []uint{1, 8, 12, 16, 20} {
						for id := 0; id < d.Len(); id++ {
							term := d.Term(TermID((id + g) % d.Len()))
							if got, want := d.Slot(TermID((id+g)%d.Len()), bits), qrp.SlotOf(qrp.HashProduct(term), bits); got != want {
								errs <- fmt.Sprintf("Slot(%q, %d) = %d, want %d", term, bits, got, want)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if got, want := d.HeapBytes(), before+4*uint64(d.Len()); got != want {
				t.Fatalf("HeapBytes %d after the first Slot, want %d (%d before)", got, want, before)
			}
		})
	}
}

// TestFromRawRejectsOffsetPastArena: an offset past the arena in the middle
// of the table, behind in-bounds neighbours, is an error, not a panic.
func TestFromRawRejectsOffsetPastArena(t *testing.T) {
	if _, err := FromRaw([]byte("abcd"), []uint32{0, 1, 100, 4}, 1); err == nil {
		t.Fatal("FromRaw accepted an offset past the arena")
	}
}

func TestHeapBytesPositive(t *testing.T) {
	d, _ := Build(testLibraries(), 1)
	if d.HeapBytes() == 0 {
		t.Fatal("HeapBytes reported 0 for a populated dictionary")
	}
}

// finalIDs lists, per library and file, the file's final term IDs in the
// order the interner resolved them.
func finalIDs(r *Resolved, libs [][]string) [][][]TermID {
	out := make([][][]TermID, len(libs))
	for l, lib := range libs {
		ids, off, remap := r.Library(l)
		if len(off) != len(lib)+1 {
			return nil
		}
		for f := range lib {
			var file []TermID
			for _, id := range ids[off[f]:off[f+1]] {
				file = append(file, remap[id])
			}
			out[l] = append(out[l], file)
		}
	}
	return out
}

// TestBuildDeterministicAndMatchesReference: Build gives the same arena,
// checksum and per-file ID lists at 1, 2, 3 and 8 workers (as many
// interner shards over these eight libraries), and equals the reference — a sorted set of every
// library token, each file's IDs being its distinct tokens' positions in
// that order, first appearance first.
func TestBuildDeterministicAndMatchesReference(t *testing.T) {
	libs := append(testLibraries(),
		[]string{"", "- . -", "Dup dup DUP dup.mp3", "Ünïcödé Straße ÜNÏCÖDÉ.ogg"},
		nil,
		[]string{"x y z", "Another Band - Track.wma"})
	set := map[string]struct{}{}
	for _, lib := range libs {
		for _, name := range lib {
			for _, tok := range terms.Tokenize(name) {
				set[tok] = struct{}{}
			}
		}
	}
	var sorted []string
	for tok := range set {
		sorted = append(sorted, tok)
	}
	sort.Strings(sorted)
	var wantBytes []byte
	wantOff := []uint32{0}
	for _, tok := range sorted {
		wantBytes = append(wantBytes, tok...)
		wantOff = append(wantOff, uint32(len(wantBytes)))
	}
	wantIDs := make([][][]TermID, len(libs))
	for l, lib := range libs {
		for _, name := range lib {
			var file []TermID
			for _, tok := range terms.Tokenize(name) {
				id := TermID(sort.SearchStrings(sorted, tok))
				if !slices.Contains(file, id) {
					file = append(file, id)
				}
			}
			wantIDs[l] = append(wantIDs[l], file)
		}
	}
	var wantSum uint64
	for i, w := range []int{1, 2, 3, 8} {
		d, r := Build(libs, w)
		b, off := d.Raw()
		if !bytes.Equal(b, wantBytes) || !slices.Equal(off, wantOff) {
			t.Fatalf("workers=%d: arena differs from the sorted-set reference", w)
		}
		if i == 0 {
			wantSum = d.Checksum()
		} else if d.Checksum() != wantSum {
			t.Fatalf("workers=%d: checksum %x, want %x", w, d.Checksum(), wantSum)
		}
		if got := finalIDs(r, libs); !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("workers=%d: per-file IDs %v, want %v", w, got, wantIDs)
		}
	}
}

// TestMergeRemapsEveryInterner: interners that saw overlapping, disjoint
// and empty vocabularies merge into one sorted dictionary, and each remap
// sends a provisional ID to the final ID of the same term.
func TestMergeRemapsEveryInterner(t *testing.T) {
	names := [][]string{{"beta alpha", "gamma"}, {}, {"alpha delta", "zeta beta"}, {"omega"}}
	ins := make([]*Interner, len(names))
	for s, ns := range names {
		ins[s] = NewInterner()
		for _, n := range ns {
			ins[s].AppendIDs(nil, n)
		}
	}
	d, remaps := Merge(ins, 2)
	if d.Len() != 6 {
		t.Fatalf("merged %d terms, want 6", d.Len())
	}
	for s, in := range ins {
		for pid, tok := range in.Vocab() {
			if got := d.Term(remaps[s][pid]); got != tok {
				t.Fatalf("interner %d: provisional %d (%q) remaps to %q", s, pid, tok, got)
			}
		}
	}
}

// TestSortVocabOnMatchesSerialSort: sorting a vocabulary in runs on the
// workers and merging them pairwise gives the serial sort's order for
// every run count — one run, two, an odd count whose last run waits a
// round, and one run per term — at 1 and 3 workers, and hands the
// parallel engine the same batches and units at both.
func TestSortVocabOnMatchesSerialSort(t *testing.T) {
	reg := obs.NewRegistry()
	parallel.Instrument(reg)
	defer parallel.Instrument(nil)
	batches, units := reg.Counter("parallel_batches_total"), reg.Counter("parallel_map_units_total")
	var names []string
	for _, lib := range testLibraries() {
		names = append(names, lib...)
	}
	for i := range 40 {
		names = append(names, fmt.Sprintf("w%03d z%d", (i*37)%41, i%7))
	}
	fill := func() *Interner {
		in := NewInterner()
		for _, n := range names {
			in.AppendIDs(nil, n)
		}
		return in
	}
	ref := fill()
	ref.sortVocab()
	n := len(ref.vocab)
	for _, runLen := range []int{n, (n + 1) / 2, (n + 2) / 3, 7, 2, 1} {
		var work [][2]int64
		for _, workers := range []int{1, 3} {
			in := fill()
			b0, u0 := batches.Value(), units.Value()
			in.sortVocabOn(workers, runLen, make([]TermID, len(in.vocab)))
			work = append(work, [2]int64{batches.Value() - b0, units.Value() - u0})
			if !slices.Equal(in.order, ref.order) {
				t.Fatalf("runLen=%d workers=%d: order %v, serial sort %v", runLen, workers, in.order, ref.order)
			}
		}
		if work[0] != work[1] {
			t.Fatalf("runLen=%d: (batches, units) %v at 1 worker, %v at 3", runLen, work[0], work[1])
		}
	}
}

// TestMergeSortsLargeVocabInRuns: a vocabulary past sortRun terms, as the
// sharded build's one interner holds, is sorted in runs on the workers;
// the dictionary comes out in term order and the remap table, which
// reuses the sort's spare buffer, sends every provisional ID to its own
// term, at 1 and 3 workers.
func TestMergeSortsLargeVocabInRuns(t *testing.T) {
	const terms = sortRun + sortRun/2 + 7 // two runs, unequal to the sort's halves
	for _, workers := range []int{1, 3} {
		in := NewInterner()
		for i := range terms {
			// A permutation of 0..terms-1, so first appearance is not term order.
			in.AppendIDs(nil, fmt.Sprintf("t%07d", (i*7919)%terms))
		}
		d, remaps := Merge([]*Interner{in}, workers)
		if d.Len() != terms {
			t.Fatalf("workers=%d: %d terms, want %d", workers, d.Len(), terms)
		}
		for id := 1; id < d.Len(); id++ {
			if d.Term(TermID(id-1)) >= d.Term(TermID(id)) {
				t.Fatalf("workers=%d: terms %d and %d out of order", workers, id-1, id)
			}
		}
		for pid, tok := range in.Vocab() {
			if got := d.Term(remaps[0][pid]); got != tok {
				t.Fatalf("workers=%d: provisional %d (%q) remaps to %q", workers, pid, tok, got)
			}
		}
	}
}
