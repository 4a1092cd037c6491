package daap

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"querycentric/internal/stats"
	"querycentric/internal/vocab"
)

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Shares = 60
	cfg.UniqueSongs = 4000
	return cfg
}

func TestBuildPopulationValidation(t *testing.T) {
	bad := []Config{
		{Shares: 0, UniqueSongs: 10},
		{Shares: 10, UniqueSongs: 0},
	}
	for i, cfg := range bad {
		if _, err := BuildPopulation(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestPopulationFunnel(t *testing.T) {
	p, err := BuildPopulation(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var pw, busy, fw, ok int
	for _, s := range p.Shares {
		switch s.Status {
		case StatusPassword:
			pw++
		case StatusBusy:
			busy++
		case StatusFirewalled:
			fw++
		case StatusOK:
			ok++
		}
	}
	if pw+busy+fw+ok != 60 {
		t.Fatal("statuses do not partition the shares")
	}
	if ok != len(p.Readable) {
		t.Errorf("Readable list inconsistent: %d vs %d", ok, len(p.Readable))
	}
	if fw == 0 || ok == 0 {
		t.Errorf("degenerate funnel: pw=%d busy=%d fw=%d ok=%d", pw, busy, fw, ok)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a, _ := BuildPopulation(smallConfig(5))
	b, _ := BuildPopulation(smallConfig(5))
	for i := range a.Shares {
		if a.Shares[i].Status != b.Shares[i].Status {
			t.Fatalf("share %d status differs", i)
		}
		if len(a.Shares[i].Songs) != len(b.Shares[i].Songs) {
			t.Fatalf("share %d: %d vs %d songs", i, len(a.Shares[i].Songs), len(b.Shares[i].Songs))
		}
	}
}

func TestAnnotationCalibration(t *testing.T) {
	p, err := BuildPopulation(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	// Song-name singleton fraction ~64% (paper) — accept 0.50–0.78.
	holders := map[string]map[int]struct{}{}
	var noGenre, noAlbum, total int
	for _, s := range p.Readable {
		for _, song := range s.Songs {
			total++
			if song.Genre == "" {
				noGenre++
			}
			if song.Album == "" {
				noAlbum++
			}
			m, ok := holders[song.Track]
			if !ok {
				m = map[int]struct{}{}
				holders[song.Track] = m
			}
			m[s.ID] = struct{}{}
		}
	}
	counts := make([]int, 0, len(holders))
	for _, m := range holders {
		counts = append(counts, len(m))
	}
	single := stats.FractionAtMost(counts, 1)
	if single < 0.50 || single > 0.78 {
		t.Errorf("song singleton fraction = %v, want ~0.64", single)
	}
	if f := float64(noGenre) / float64(total); f < 0.05 || f > 0.13 {
		t.Errorf("no-genre fraction = %v, want ~0.087", f)
	}
	if f := float64(noAlbum) / float64(total); f < 0.05 || f > 0.12 {
		t.Errorf("no-album fraction = %v, want ~0.081", f)
	}
	// Mean placements per unique song ~2–4 (paper: 3.1).
	mean := float64(total) / float64(len(holders))
	if mean < 1.5 || mean > 4.5 {
		t.Errorf("mean song replication = %v, want ~3", mean)
	}
}

func TestGracenoteDeterministic(t *testing.T) {
	v, err := vocab.New(vocab.Config{Seed: 9, Artists: 100, Titles: 500, Albums: 80, Genres: 40})
	if err != nil {
		t.Fatal(err)
	}
	gnA, err := NewGracenote(v, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	gnB, err := NewGracenote(v, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if gnA.Lookup(i) != gnB.Lookup(i) {
			t.Fatal("Gracenote lookup not deterministic")
		}
	}
	if gnA.Lookup(1) == gnA.Lookup(2) {
		t.Error("distinct songs share identical metadata (suspicious)")
	}
}

func TestGracenoteValidation(t *testing.T) {
	if _, err := NewGracenote(nil, 1, 0); err == nil {
		t.Error("nil vocabulary accepted")
	}
}

func TestCrawlFunnelAndTrace(t *testing.T) {
	p, err := BuildPopulation(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	tr, cs, err := Crawl(p)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Discovered != 60 {
		t.Errorf("discovered %d", cs.Discovered)
	}
	if cs.Collected != len(p.Readable) {
		t.Errorf("collected %d, want %d readable", cs.Collected, len(p.Readable))
	}
	var wantPW, wantBusy, wantFW int
	for _, s := range p.Shares {
		switch s.Status {
		case StatusPassword:
			wantPW++
		case StatusBusy:
			wantBusy++
		case StatusFirewalled:
			wantFW++
		}
	}
	if cs.Password != wantPW || cs.Busy != wantBusy || cs.Firewalled != wantFW {
		t.Errorf("funnel %s, want pw=%d busy=%d fw=%d", cs, wantPW, wantBusy, wantFW)
	}
	if cs.Failed != 0 {
		t.Errorf("unexpected failures: %s", cs)
	}
	songs := 0
	for _, s := range p.Readable {
		songs += len(s.Songs)
	}
	if len(tr.Records) != songs {
		t.Errorf("trace has %d records, readable shares hold %d songs", len(tr.Records), songs)
	}
	if tr.Peers != cs.Collected {
		t.Errorf("trace.Peers = %d, want %d", tr.Peers, cs.Collected)
	}
}

func TestCrawlPreservesAnnotations(t *testing.T) {
	p, err := BuildPopulation(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := Crawl(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[SongMeta]int{}
	for _, s := range p.Readable {
		for _, song := range s.Songs {
			key := SongMeta{Track: song.Track, Artist: song.Artist, Album: song.Album, Genre: song.Genre}
			want[key]++
		}
	}
	got := map[SongMeta]int{}
	for _, r := range tr.Records {
		got[SongMeta{Track: r.Track, Artist: r.Artist, Album: r.Album, Genre: r.Genre}]++
	}
	if len(got) != len(want) {
		t.Fatalf("distinct annotation tuples: got %d, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("tuple %+v: got %d, want %d", k, got[k], n)
		}
	}
}

func TestServerOverRealTCP(t *testing.T) {
	p, err := BuildPopulation(smallConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	share := p.Readable[0]
	ts := httptest.NewServer(Serve(share))
	defer ts.Close()
	songs, err := CrawlURL(ts.Client(), ts.URL, share.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(songs) != len(share.Songs) {
		t.Errorf("crawled %d songs over TCP, want %d", len(songs), len(share.Songs))
	}
}

func TestPasswordShareRejects(t *testing.T) {
	share := &Share{ID: 1, Name: "locked", Status: StatusPassword, Password: "pw",
		Songs: []SongMeta{{Track: "x"}}}
	if _, err := crawlShare(share); !isStatus(err, http.StatusUnauthorized) {
		t.Errorf("expected 401, got %v", err)
	}
}

func TestPasswordShareAcceptsCorrectAuth(t *testing.T) {
	share := &Share{ID: 1, Name: "locked", Status: StatusPassword, Password: "pw",
		Songs: []SongMeta{{Track: "x", Artist: "y"}}}
	ts := httptest.NewServer(Serve(share))
	defer ts.Close()
	// Hand-rolled conversation with auth.
	client := ts.Client()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/login", nil)
	req.SetBasicAuth("", "pw")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("authorized login returned %d", resp.StatusCode)
	}
}

func TestBusyShareRejects(t *testing.T) {
	share := &Share{ID: 2, Name: "popular", Status: StatusBusy, PriorClients: BusyClientLimit}
	if _, err := crawlShare(share); !isStatus(err, http.StatusServiceUnavailable) {
		t.Errorf("expected 503, got %v", err)
	}
}

func TestBusyLimitCountsDistinctClients(t *testing.T) {
	share := &Share{ID: 3, Name: "s", Status: StatusOK, PriorClients: BusyClientLimit - 1}
	ts := httptest.NewServer(Serve(share))
	defer ts.Close()
	login := func(ip string) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/login", nil)
		req.Header.Set(clientIPHeader, ip)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := login("10.0.0.1"); code != http.StatusOK {
		t.Fatalf("first client rejected with %d", code)
	}
	if code := login("10.0.0.1"); code != http.StatusOK {
		t.Fatalf("same client re-login rejected with %d", code)
	}
	if code := login("10.0.0.2"); code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit client got %d, want 503", code)
	}
}

func TestSessionRequired(t *testing.T) {
	share := &Share{ID: 4, Name: "s", Status: StatusOK, Songs: []SongMeta{{Track: "x"}}}
	ts := httptest.NewServer(Serve(share))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/databases/1/items?session-id=999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("bogus session got %d, want 403", resp.StatusCode)
	}
}

func BenchmarkCrawlPopulation(b *testing.B) {
	p, err := BuildPopulation(smallConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Crawl(p); err != nil {
			b.Fatal(err)
		}
	}
}
