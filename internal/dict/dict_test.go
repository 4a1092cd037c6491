package dict

import (
	"testing"

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
	base := Build(libs, 1)
	for _, w := range []int{2, 4, 8} {
		d := Build(libs, w)
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
	d := Build(testLibraries(), 1)
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
	d := Build(libs, 1)
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
	d := Build(testLibraries(), 1)
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

func TestIntern(t *testing.T) {
	d := Build(testLibraries(), 1)
	canon, ok := d.Intern("artist")
	if !ok || canon != "artist" {
		t.Fatalf("Intern(known) = (%q, %v)", canon, ok)
	}
	missing, ok := d.Intern("nosuchterm")
	if ok || missing != "nosuchterm" {
		t.Fatalf("Intern(unknown) = (%q, %v)", missing, ok)
	}
}

func TestProductMatchesQRPHash(t *testing.T) {
	d := Build(testLibraries(), 4)
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

func TestFromNamesCollapsesDuplicates(t *testing.T) {
	d := FromNames([]string{"same name.mp3", "Same Name.mp3", "same NAME.mp3"}, 1)
	if d.Len() != 3 { // same, name, mp3
		t.Fatalf("got %d terms, want 3", d.Len())
	}
}

func TestHeapBytesPositive(t *testing.T) {
	d := Build(testLibraries(), 1)
	if d.HeapBytes() == 0 {
		t.Fatal("HeapBytes reported 0 for a populated dictionary")
	}
}
