package qrp

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewTableValidation(t *testing.T) {
	for _, bits := range []uint{0, 25, 99} {
		if _, err := NewTable(bits); err == nil {
			t.Errorf("bits=%d accepted", bits)
		}
	}
	if _, err := NewTable(DefaultBits); err != nil {
		t.Fatal(err)
	}
}

func TestHashDeterministicAndCaseFolded(t *testing.T) {
	if Hash("Madonna", 16) != Hash("madonna", 16) {
		t.Error("hash not case-insensitive")
	}
	if Hash("madonna", 16) != Hash("madonna", 16) {
		t.Error("hash not deterministic")
	}
	if Hash("madonna", 16) == Hash("zeppelin", 16) {
		t.Error("suspicious collision")
	}
}

func TestHashRange(t *testing.T) {
	f := func(s string) bool {
		return Hash(s, 12) < 1<<12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNoFalseNegatives(t *testing.T) {
	tab, _ := NewTable(16)
	names := []string{
		"Aaron Neville - I Don't Know Much.mp3",
		"Linda Ronstadt - Blue Bayou.mp3",
		"01 Track.wma",
	}
	for _, n := range names {
		tab.AddName(n)
	}
	for _, q := range []string{"aaron neville", "blue bayou", "track", "mp3", "NEVILLE"} {
		if !tab.MatchesQuery(q) {
			t.Errorf("query %q missed despite matching content", q)
		}
	}
}

func TestQueryHashesEquivalentToMatchesQuery(t *testing.T) {
	tab, _ := NewTable(12)
	tab.AddName("Aaron Neville - I Don't Know Much.mp3")
	tab.AddName("Linda Ronstadt - Blue Bayou.mp3")
	queries := []string{
		"aaron neville", "blue bayou", "mp3", "aaron ronstadt",
		"zzz unknown", "", "---", "NEVILLE",
	}
	for _, q := range queries {
		hoisted := tab.ContainsAll(QueryHashes(q, tab.bits))
		if direct := tab.MatchesQuery(q); hoisted != direct {
			t.Errorf("query %q: hoisted=%v direct=%v", q, hoisted, direct)
		}
	}
	if QueryHashes("", 12) != nil || QueryHashes("---", 12) != nil {
		t.Error("keywordless query produced hashes")
	}
}

func TestConjunctiveReject(t *testing.T) {
	tab, _ := NewTable(16)
	tab.AddName("Aaron Neville - Bayou.mp3")
	if tab.MatchesQuery("aaron ronstadt") {
		t.Error("query with an unknown keyword matched")
	}
	if tab.MatchesQuery("") || tab.MatchesQuery("---") {
		t.Error("keywordless query matched")
	}
}

func TestFalsePositivesBounded(t *testing.T) {
	tab, _ := NewTable(16)
	for i := 0; i < 2000; i++ {
		tab.AddKeyword(fmt.Sprintf("inword%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if tab.MatchesQuery(fmt.Sprintf("outword%d", i)) {
			fp++
		}
	}
	// 2000 of 65536 slots ≈ 3% fill; single-keyword FP rate ≈ fill ratio.
	if rate := float64(fp) / probes; rate > 0.1 {
		t.Errorf("false positive rate %v too high", rate)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tab, _ := NewTable(12)
	for i := 0; i < 300; i++ {
		tab.AddKeyword(fmt.Sprintf("kw%d", i))
	}
	blob := tab.Encode()
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.bits != 12 || back.n != 300 {
		t.Errorf("decoded bits=%d n=%d", back.bits, back.n)
	}
	for i := 0; i < 300; i++ {
		if !back.MatchesQuery(fmt.Sprintf("kw%d", i)) {
			t.Fatalf("keyword kw%d lost in round trip", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	tab, _ := NewTable(10)
	blob := tab.Encode()
	if _, err := Decode(blob[:4]); err == nil {
		t.Error("short blob accepted")
	}
	bad := append([]byte{}, blob...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(blob[:len(blob)-1]); err == nil {
		t.Error("truncated blob accepted")
	}
	oversize := append([]byte{}, blob...)
	oversize[4] = 30 // invalid bits
	if _, err := Decode(oversize); err == nil {
		t.Error("invalid bits accepted")
	}
}

func TestQuickAddThenMatch(t *testing.T) {
	tab, _ := NewTable(16)
	f := func(word string) bool {
		// Only keywords that survive tokenization can be queried back.
		tab.AddKeyword(word)
		return tab.ContainsAll([]uint32{Hash(word, 16)})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddName(b *testing.B) {
	tab, _ := NewTable(16)
	for i := 0; i < b.N; i++ {
		tab.AddName("Some Artist - A Reasonably Long Song Title (Live).mp3")
	}
}

func BenchmarkMatchesQuery(b *testing.B) {
	tab, _ := NewTable(16)
	for i := 0; i < 5000; i++ {
		tab.AddKeyword(fmt.Sprintf("kw%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.MatchesQuery("kw123 kw456")
	}
}

func TestHashSplitsIntoProductAndSlot(t *testing.T) {
	words := []string{"artist", "SONG", "Remix", "a", "zz99", "Track.wma"}
	for _, w := range words {
		prod := HashProduct(w)
		for _, bits := range []uint{1, 8, 16, 24} {
			if got, want := SlotOf(prod, bits), Hash(w, bits); got != want {
				t.Fatalf("SlotOf(HashProduct(%q), %d) = %d, Hash = %d", w, bits, got, want)
			}
		}
	}
	// Case folding happens in the product, so folded pairs share one.
	if HashProduct("SoNg") != HashProduct("song") {
		t.Fatal("HashProduct is not case-folded")
	}
}

func TestAddSlotMatchesAddKeyword(t *testing.T) {
	byKeyword, _ := NewTable(16)
	bySlot, _ := NewTable(16)
	words := []string{"alpha", "beta", "gamma", "delta"}
	for _, w := range words {
		byKeyword.AddKeyword(w)
		bySlot.AddSlot(Hash(w, 16))
	}
	if !reflect.DeepEqual(byKeyword, bySlot) {
		t.Fatal("AddKeyword and AddSlot built different tables")
	}
}
