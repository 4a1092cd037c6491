package querygen

import (
	"strings"
	"testing"

	"querycentric/internal/stats"
	"querycentric/internal/terms"
)

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Queries = 30000
	cfg.Duration = 24 * 3600
	return cfg
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Queries: 0, Duration: 1},
		{Queries: 1, Duration: 0},
		{Queries: 1, Duration: 1, CoreFileOverlap: 1.5},
		{Queries: 1, Duration: 1, TailFileOverlap: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	w, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Trace.Records) != 30000 {
		t.Fatalf("got %d queries", len(w.Trace.Records))
	}
	if len(w.Core) != coreSize || len(w.Tail) != tailSize {
		t.Fatalf("vocab sizes: core=%d tail=%d", len(w.Core), len(w.Tail))
	}
	// Times are sorted and within [0, Duration).
	var prev int64 = -1
	for _, r := range w.Trace.Records {
		if r.Time < prev {
			t.Fatal("timestamps not sorted")
		}
		if r.Time < 0 || r.Time >= w.Trace.Duration {
			t.Fatalf("time %d outside [0,%d)", r.Time, w.Trace.Duration)
		}
		prev = r.Time
		n := len(strings.Fields(r.Query))
		if n < 1 || n > 3 {
			t.Fatalf("query %q has %d terms", r.Query, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trace.Records {
		if a.Trace.Records[i] != b.Trace.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if len(a.Bursts) != len(b.Bursts) {
		t.Fatal("burst schedules differ")
	}
}

func TestVocabDisjoint(t *testing.T) {
	w, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range w.Core {
		if seen[s] {
			t.Fatalf("duplicate core term %q", s)
		}
		seen[s] = true
	}
	for _, s := range w.Tail {
		if seen[s] {
			t.Fatalf("term %q appears in both core and tail", s)
		}
		seen[s] = true
	}
}

func TestCoreDominatesCounts(t *testing.T) {
	w, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	total := 0
	for _, r := range w.Trace.Records {
		for _, tok := range strings.Fields(r.Query) {
			counts[tok]++
			total++
		}
	}
	coreTotal := 0
	for _, c := range w.Core {
		coreTotal += counts[c]
	}
	frac := float64(coreTotal) / float64(total)
	if frac < 0.45 || frac > 0.70 {
		t.Errorf("core mass = %v, want ~0.55", frac)
	}
	// Every core term should appear a non-trivial number of times.
	minCount := total
	for _, c := range w.Core {
		if counts[c] < minCount {
			minCount = counts[c]
		}
	}
	if minCount < 20 {
		t.Errorf("least popular core term appeared only %d times", minCount)
	}
}

func TestPopularSetStability(t *testing.T) {
	// The headline Figure 6 behaviour: consecutive intervals' popular sets
	// overlap strongly.
	w, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	interval := int64(3600)
	buckets := map[int64]map[string]int{}
	for _, r := range w.Trace.Records {
		b := r.Time / interval
		if buckets[b] == nil {
			buckets[b] = map[string]int{}
		}
		for _, tok := range strings.Fields(r.Query) {
			buckets[b][tok]++
		}
	}
	popular := func(m map[string]int, qn int) map[string]struct{} {
		out := map[string]struct{}{}
		thresh := qn / 400 // 0.25% of interval term volume
		if thresh < 3 {
			thresh = 3
		}
		for tok, c := range m {
			if c >= thresh {
				out[tok] = struct{}{}
			}
		}
		return out
	}
	var sims []float64
	nb := int64(len(buckets))
	for b := int64(2); b < nb; b++ { // skip warmup
		prevN, curN := 0, 0
		for _, c := range buckets[b-1] {
			prevN += c
		}
		for _, c := range buckets[b] {
			curN += c
		}
		sims = append(sims, stats.Jaccard(popular(buckets[b-1], prevN), popular(buckets[b], curN)))
	}
	mean := stats.Mean(sims)
	if mean < 0.75 {
		t.Errorf("mean consecutive-interval popular-set Jaccard = %v, want > 0.75", mean)
	}
}

func TestBurstTermsSpike(t *testing.T) {
	cfg := smallConfig(6)
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Bursts) == 0 {
		t.Skip("no bursts scheduled at this seed")
	}
	b := w.Bursts[0]
	inside, outside := 0, 0
	for _, r := range w.Trace.Records {
		hit := false
		for _, tok := range strings.Fields(r.Query) {
			if tok == b.Term {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if r.Time >= b.Start && r.Time < b.End {
			inside++
		} else {
			outside++
		}
	}
	// Burst terms are tail terms: the burst window is a small part of the
	// day, so without the burst the inside count would be tiny.
	if inside == 0 {
		t.Fatalf("burst term %q never queried during its window", b.Term)
	}
	winFrac := float64(b.End-b.Start) / float64(cfg.Duration)
	insideRate := float64(inside) / winFrac
	outsideRate := float64(outside) / (1 - winFrac)
	if insideRate < 3*outsideRate {
		t.Errorf("burst term rate inside window %.1f not >> outside %.1f", insideRate, outsideRate)
	}
}

func TestFileTermOverlapControlsJaccard(t *testing.T) {
	fileTerms := make([]string, 2000)
	for i := range fileTerms {
		fileTerms[i] = "file" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
	}
	low := smallConfig(7)
	low.FileTerms = fileTerms
	low.CoreFileOverlap = 0.10
	high := smallConfig(7)
	high.FileTerms = fileTerms
	high.CoreFileOverlap = 0.90

	overlap := func(cfg Config) float64 {
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Jaccard(toSet(w.Core), toSet(fileTerms[:coreSize]))
	}
	lo, hi := overlap(low), overlap(high)
	if lo >= hi {
		t.Errorf("overlap knob ineffective: low=%v high=%v", lo, hi)
	}
	if lo > 0.2 {
		t.Errorf("low overlap configuration produced Jaccard %v", lo)
	}
	if hi < 0.5 {
		t.Errorf("high overlap configuration produced Jaccard %v", hi)
	}
}

func toSet(xs []string) map[string]struct{} {
	s := make(map[string]struct{}, len(xs))
	for _, x := range xs {
		s[x] = struct{}{}
	}
	return s
}

func TestQueriesTokenizeCleanly(t *testing.T) {
	w, err := Generate(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Trace.Records[:500] {
		toks := terms.Tokenize(r.Query)
		if len(toks) == 0 {
			t.Fatalf("query %q tokenizes to nothing", r.Query)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := smallConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDiurnalModulation(t *testing.T) {
	cfg := smallConfig(9)
	cfg.Duration = 2 * 86400
	cfg.Queries = 60000
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Queries per 4-hour bucket: the diurnal cycle makes the busiest
	// bucket well over the quietest.
	buckets := map[int64]int{}
	for _, r := range w.Trace.Records {
		buckets[r.Time/(4*3600)]++
	}
	lo, hi := 1<<30, 0
	for _, c := range buckets {
		lo, hi = min(lo, c), max(hi, c)
	}
	if spread := float64(hi-lo) / float64(hi); spread < 0.2 {
		t.Errorf("diurnal arrivals spread %v, want substantial", spread)
	}
}

func TestDiurnalTimesSortedAndInRange(t *testing.T) {
	cfg := smallConfig(10)
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for _, r := range w.Trace.Records {
		if r.Time < prev {
			t.Fatal("diurnal times not sorted")
		}
		if r.Time < 0 || r.Time >= cfg.Duration {
			t.Fatalf("time %d out of range", r.Time)
		}
		prev = r.Time
	}
}
