package obs

import "sort"

// StreamSketch is a bounded space-saving frequency sketch over int32 keys,
// the observation structure behind query-stream-driven adaptation: a peer
// (or a whole simulation) feeds every query's target object through
// Observe, and the sketch maintains an approximate top-k by popularity in
// O(capacity) space no matter how many distinct objects flow past. Each
// tracked key also accumulates outcome evidence — how many of its queries
// found anything and how many results they returned — so an adaptation
// policy can separate hot-and-well-replicated objects from the
// hot-but-rare ones worth replicating.
//
// Unlike the registry's metrics, the sketch is not thread-safe: it belongs
// to the single-threaded fold/adapt phase of a measurement loop (the same
// discipline as Gauge.Set). All tie-breaks are by smallest key, so the
// sketch's state is a pure function of the observation sequence and its
// snapshots are byte-identical across runs and worker counts.
type StreamSketch struct {
	cap     int
	entries map[int32]*SketchEntry
}

// SketchEntry is one tracked key's accumulated evidence.
type SketchEntry struct {
	Key     int32 // object id
	Count   int64 // space-saving popularity estimate (decays)
	Hits    int64 // observations that found at least one result
	Results int64 // total results across observations
}

// NewStreamSketch returns an empty sketch tracking at most capacity keys.
// Panics on a non-positive capacity — a configuration bug, not a runtime
// condition.
func NewStreamSketch(capacity int) *StreamSketch {
	if capacity < 1 {
		panic("obs: stream sketch capacity must be positive")
	}
	return &StreamSketch{cap: capacity, entries: make(map[int32]*SketchEntry, capacity)}
}

// Observe records one query for key, with its outcome: whether it found
// anything and how many results it returned. A key already tracked is
// incremented in place; a new key either takes a free slot or, when the
// sketch is full, evicts the minimum-count entry (smallest key on ties)
// and inherits its count plus one — the space-saving overestimate that
// guarantees no key with true frequency above the minimum is missed.
func (s *StreamSketch) Observe(key int32, hit bool, results int) {
	e := s.entries[key]
	if e == nil {
		if len(s.entries) < s.cap {
			e = &SketchEntry{Key: key}
		} else {
			victim := s.minEntry()
			delete(s.entries, victim.Key)
			e = &SketchEntry{Key: key, Count: victim.Count}
		}
		s.entries[key] = e
	}
	e.Count++
	if hit {
		e.Hits++
	}
	e.Results += int64(results)
}

// minEntry returns the tracked entry with the smallest count, breaking
// ties toward the smallest key. Only called on a non-empty sketch.
func (s *StreamSketch) minEntry() *SketchEntry {
	var min *SketchEntry
	for _, e := range s.entries {
		if min == nil || e.Count < min.Count || (e.Count == min.Count && e.Key < min.Key) {
			min = e
		}
	}
	return min
}

// Decay halves every count (and hit/result tally) and drops entries whose
// count reaches zero, aging out objects that stopped being queried. Called
// once per adaptation round, it turns the all-time counts into an
// exponentially windowed popularity estimate.
func (s *StreamSketch) Decay() {
	for k, e := range s.entries {
		e.Count /= 2
		e.Hits /= 2
		e.Results /= 2
		if e.Count == 0 {
			delete(s.entries, k)
		}
	}
}

// Top returns up to k entries sorted by count descending, key ascending —
// the sketch's estimate of the hottest objects. The entries are copies,
// safe to hold across further observations.
func (s *StreamSketch) Top(k int) []SketchEntry {
	out := make([]SketchEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
