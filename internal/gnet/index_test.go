package gnet

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"querycentric/internal/rng"
	"querycentric/internal/terms"
)

// linearMatch is the index-free match oracle: scan the library and keep
// every file whose name holds all of the query's tokens.
func linearMatch(lib []File, criteria string) []File {
	q := terms.Tokenize(criteria)
	var out []File
	for _, f := range lib {
		if terms.Matches(q, nameTokens(f.Name)) {
			out = append(out, f)
		}
	}
	return out
}

// nameTokenSets memoises terms.TokenSet per file name: the oracle's floods
// match the same fixture libraries again and again, and tokenizing every
// reached file of every flood was a sixth of a fuzz input's cost.
var nameTokenSets sync.Map // name → map[string]struct{}

// nameTokens is terms.TokenSet(name), computed once per name; the set is
// shared and must not be mutated.
func nameTokens(name string) map[string]struct{} {
	if set, ok := nameTokenSets.Load(name); ok {
		return set.(map[string]struct{})
	}
	set, _ := nameTokenSets.LoadOrStore(name, terms.TokenSet(name))
	return set.(map[string]struct{})
}

// TestMatchEquivalentToLinearScan checks Peer.Match against the linear-scan
// oracle for every (peer, query) pair of the fixture, with queries drawn
// from every library — single names, repeated tokens, a common token, the
// empty query — after one peer gained a file whose tokens the dictionary
// never saw, which re-interns the network onto one new dictionary.
func TestMatchEquivalentToLinearScan(t *testing.T) {
	nw := populatedNet(t, 120)
	before := nw.dict
	if err := nw.AddFile(5, "Zzzz Novel Tokens Everywhere.mp3", 99); err != nil {
		t.Fatal(err)
	}
	queries := []string{"track", "", "novel tokens", "novel track"}
	for _, p := range nw.Peers {
		if len(p.Library) > 0 {
			name := p.Library[len(p.Library)/2].Name
			queries = append(queries, name, name+" "+name)
		}
	}
	for _, p := range nw.Peers {
		for _, criteria := range queries {
			got, want := p.Match(criteria), linearMatch(p.Library, criteria)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("peer %d Match(%q): index %v vs linear scan %v", p.ID, criteria, got, want)
			}
		}
	}
	if nw.dict == before {
		t.Fatal("a novel term left the network on its old dictionary")
	}
	for _, p := range nw.Peers {
		if p.dict != nw.dict {
			t.Fatalf("peer %d matches through a dictionary other than the network's", p.ID)
		}
	}
}

// TestMatchUnknownTerm covers the paper's query/annotation mismatch: a
// query term absent from every library resolves to NoTerm and must
// short-circuit to zero hits without panicking — alone, and conjoined with
// terms that do exist.
func TestMatchUnknownTerm(t *testing.T) {
	nw := populatedNet(t, 60)
	known := fileOf(t, nw, 3)
	for _, criteria := range []string{
		"zqxjkwv",
		known + " zqxjkwv",
		"zqxjkwv qqqqzz",
	} {
		for _, p := range nw.Peers {
			if files := p.Match(criteria); files != nil {
				t.Fatalf("Match(%q) on peer %d = %v, want nil", criteria, p.ID, files)
			}
		}
		res, err := nw.NewFloodCtx().Flood(0, criteria, 4, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalResults != 0 || len(res.Hits) != 0 {
			t.Fatalf("Flood(%q) found %d results, want 0", criteria, res.TotalResults)
		}
		if res.PeersReached == 0 || res.Messages == 0 {
			t.Fatalf("Flood(%q) did not spread (reached %d, messages %d); the query must still flood",
				criteria, res.PeersReached, res.Messages)
		}
	}
}

// TestMatchEmptyCriteria: no keywords, no matches.
func TestMatchEmptyCriteria(t *testing.T) {
	nw := populatedNet(t, 40)
	for _, criteria := range []string{"", "  ", "!!", "a"} { // below MinTokenLength too
		if files := nw.Peers[1].Match(criteria); files != nil {
			t.Fatalf("Match(%q) = %v, want nil", criteria, files)
		}
		res, err := nw.NewFloodCtx().Flood(0, criteria, 3, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalResults != 0 {
			t.Fatalf("Flood(%q) returned %d results, want 0", criteria, res.TotalResults)
		}
	}
}

// TestAddFileNovelTermReinterns plants a file whose tokens the dictionary
// has never seen: AddFile re-interns the whole network, so its dictionary
// and every posting index equal a fresh catalog build's over the grown
// libraries, and both Match and a flood find the file.
func TestAddFileNovelTermReinterns(t *testing.T) {
	const novel = "Zzzz Novel Tokens Everywhere.mp3"
	nw := populatedNet(t, 40)
	if err := nw.AddFile(5, novel, 99); err != nil {
		t.Fatal(err)
	}
	files := nw.Peers[5].Match("novel tokens")
	if len(files) != 1 || files[0].Name != novel {
		t.Fatalf("Match on the grown library = %v, want the planted file", files)
	}
	cat := populatedCatalog(t, 40)
	cat.Libraries[5] = append(cat.Libraries[5], novel)
	fresh, err := NewFromCatalogWorkers(DefaultConfig(5), cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nw.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("re-interned index checksum %x, fresh build over the grown libraries %x", got, want)
	}
	res, err := nw.NewFloodCtx().Flood(0, "novel tokens everywhere", 7, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].PeerID != 5 {
		t.Fatalf("hits for the novel terms %+v, want peer 5 alone", res.Hits)
	}
}

// TestTokenizeQueryDedupe pins the dedupe semantics across the linear and
// map strategies: first appearance wins, order preserved.
func TestTokenizeQueryDedupe(t *testing.T) {
	cases := []struct {
		criteria string
		want     []string
	}{
		{"beta alpha beta gamma alpha", []string{"beta", "alpha", "gamma"}},
		{"one two three", []string{"one", "two", "three"}},
		{"dup dup dup", []string{"dup"}},
		{"", nil},
	}
	for _, c := range cases {
		got := TokenizeQuery(c.criteria)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("TokenizeQuery(%q) = %v, want %v", c.criteria, got, c.want)
		}
	}
	// Above the linear threshold the map path must agree with the scan.
	long := make([]string, 0, smallQueryDedupe+6)
	for i := 0; i < smallQueryDedupe+6; i++ {
		long = append(long, fmt.Sprintf("tok%02d", i%7))
	}
	criteria := strings.Join(long, " ")
	got := TokenizeQuery(criteria)
	want := dedupeMap(terms2(criteria))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("long-query dedupe diverged: %v vs %v", got, want)
	}
	if len(got) != 7 {
		t.Fatalf("long-query dedupe kept %d tokens, want 7", len(got))
	}
}

// terms2 re-tokenizes without dedupe (mirrors terms.Tokenize for the test).
func terms2(criteria string) []string {
	return strings.Fields(strings.ToLower(criteria))
}

// TestIndexChecksumWorkerInvariance: parallel index construction must be
// byte-identical to sequential (same dictionary, same flat arrays).
func TestIndexChecksumWorkerInvariance(t *testing.T) {
	base := populatedNet(t, 90)
	if err := base.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	want, err := base.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		nw := populatedNet(t, 90)
		if err := nw.BuildIndexes(w); err != nil {
			t.Fatal(err)
		}
		got, err := nw.IndexChecksum()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d index checksum %x, want %x", w, got, want)
		}
	}
}

// TestIndexStatsShrink pins what IndexStats reports: term and posting
// counts equal to a token-set scan of every library, and varint arenas
// smaller than the flat 4-bytes-per-posting layout they replaced.
func TestIndexStatsShrink(t *testing.T) {
	nw := populatedNet(t, 120)
	st, err := nw.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	wantTerms, wantPostings := 0, 0
	for _, p := range nw.Peers {
		distinct := map[string]struct{}{}
		for _, f := range p.Library {
			set := terms.TokenSet(f.Name)
			wantPostings += len(set)
			for tok := range set {
				distinct[tok] = struct{}{}
			}
		}
		wantTerms += len(distinct)
	}
	if st.IndexTerms != wantTerms || st.Postings != wantPostings {
		t.Fatalf("stats report %d terms / %d postings, library scan finds %d / %d",
			st.IndexTerms, st.Postings, wantTerms, wantPostings)
	}
	if st.DictTerms == 0 || st.HeapBytes == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.ArenaBytes >= 4*uint64(st.Postings) {
		t.Fatalf("posting arenas (%d B) not smaller than flat postings (%d B)", st.ArenaBytes, 4*st.Postings)
	}
}

// BenchmarkTokenizeQuery measures the small-query dedupe strategies; the
// linear scan avoids the map allocation that dominated 2–3-token queries.
func BenchmarkTokenizeQuery(b *testing.B) {
	queries := map[string]string{
		"2tok":  "artist song",
		"3tok":  "artist song remix",
		"3dup":  "song song artist",
		"12tok": "a1 b2 c3 d4 e5 f6 g7 h8 i9 j10 k11 l12",
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TokenizeQuery(q)
			}
		})
	}
}

// BenchmarkDedupe isolates the two strategies on identical token counts.
func BenchmarkDedupe(b *testing.B) {
	toks := []string{"artist", "song", "remix"}
	scratch := make([]string, 3)
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, toks)
			dedupeLinear(scratch)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, toks)
			dedupeMap(scratch)
		}
	})
}
