package obs

import (
	"reflect"
	"testing"
)

func TestSketchTracksExactWhenUnderCapacity(t *testing.T) {
	s := NewStreamSketch(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Observe(int32(i), i%2 == 0, i)
		}
	}
	if len(s.entries) != 5 {
		t.Fatalf("tracked %d keys, want 5", len(s.entries))
	}
	top := s.Top(3)
	want := []int32{4, 3, 2}
	for i, e := range top {
		if e.Key != want[i] {
			t.Fatalf("top = %v, want keys %v", top, want)
		}
		if e.Count != int64(e.Key)+1 {
			t.Errorf("key %d count %d, want %d", e.Key, e.Count, e.Key+1)
		}
	}
	// Outcome evidence: key 4 was observed 5 times, never a miss, 4 results each.
	e := s.entries[4]
	if e == nil || e.Hits != 5 || e.Results != 20 {
		t.Errorf("key 4 entry %+v, want hits 5 results 20", e)
	}
	if s.entries[99] != nil {
		t.Error("untracked key returned an entry")
	}
}

func TestSketchEvictsMinimumDeterministically(t *testing.T) {
	s := NewStreamSketch(3)
	s.Observe(10, false, 0)
	s.Observe(20, false, 0)
	s.Observe(20, false, 0)
	s.Observe(30, false, 0)
	// Full. Keys 10 and 30 both have count 1; the smallest key (10) must
	// be the victim, and the newcomer inherits count+1 = 2.
	s.Observe(40, false, 0)
	if s.entries[10] != nil {
		t.Error("min-count smallest-key entry survived eviction")
	}
	if e := s.entries[40]; e == nil || e.Count != 2 {
		t.Errorf("newcomer entry %+v, want count 2 (inherited 1, +1)", s.entries[40])
	}
	if len(s.entries) != 3 {
		t.Fatalf("sketch grew past capacity: %d", len(s.entries))
	}
}

func TestSketchDeterministicAcrossRuns(t *testing.T) {
	run := func() []SketchEntry {
		s := NewStreamSketch(4)
		keys := []int32{7, 3, 7, 9, 1, 3, 7, 5, 5, 9, 2, 7}
		for i, k := range keys {
			s.Observe(k, i%3 == 0, i%2)
		}
		s.Decay()
		s.Observe(7, true, 1)
		return s.Top(4)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical observation sequences diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestSketchDecayDropsCold(t *testing.T) {
	s := NewStreamSketch(4)
	s.Observe(1, true, 2)
	s.Observe(1, true, 2)
	s.Observe(2, false, 0)
	s.Decay()
	if s.entries[2] != nil {
		t.Error("count-1 entry survived halving")
	}
	if e := s.entries[1]; e == nil || e.Count != 1 || e.Hits != 1 || e.Results != 2 {
		t.Errorf("entry after decay %+v, want count 1 hits 1 results 2", s.entries[1])
	}
	s.Decay()
	if len(s.entries) != 0 {
		t.Error("fully decayed sketch not empty")
	}
}

func TestSketchCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity accepted")
		}
	}()
	NewStreamSketch(0)
}
