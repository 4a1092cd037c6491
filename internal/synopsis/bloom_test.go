package synopsis

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestFilterNewValidation(t *testing.T) {
	for _, tc := range []struct {
		n  int
		fp float64
	}{{0, 0.01}, {-1, 0.01}, {100, 0}, {100, 1}, {100, -0.5}} {
		if _, err := newFilter(tc.n, tc.fp); err == nil {
			t.Errorf("newFilter(%d, %v): expected error", tc.n, tc.fp)
		}
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := newFilter(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f.add(fmt.Sprintf("term-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.contains(fmt.Sprintf("term-%d", i)) {
			t.Fatalf("false negative for term-%d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f, _ := newFilter(10000, 0.01)
	for i := 0; i < 10000; i++ {
		f.add(fmt.Sprintf("in-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.contains(fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 { // target 0.01, allow 3x slack
		t.Errorf("false positive rate %v too high", rate)
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	f, _ := newFilter(500, 0.01)
	check := func(s string) bool {
		f.add(s)
		return f.contains(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFilterAdd(b *testing.B) {
	f, _ := newFilter(1000000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.add("the quick brown fox")
	}
}

func BenchmarkFilterContains(b *testing.B) {
	f, _ := newFilter(1000000, 0.01)
	for i := 0; i < 100000; i++ {
		f.add(fmt.Sprintf("t%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.contains("t12345")
	}
}
