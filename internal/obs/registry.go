// Package obs is the deterministic observability plane: counters, gauges
// and fixed-bucket histograms registered in a Registry, plus a bounded
// per-flood hop-trace recorder and a versioned run manifest. The plane
// exists to give every experiment measured evidence — crawl funnels,
// per-TTL flood coverage, repair convergence — without perturbing the
// numbers it observes.
//
// Two properties are contractual:
//
//   - Zero cost when disabled. Every metric handle is nil-safe: a nil
//     *Registry hands out nil handles, and Inc/Add/Set/Observe on a nil
//     handle are no-ops. Instrumented hot paths pay one nil check, draw no
//     randomness and allocate nothing, so outputs with the plane disabled
//     are byte-identical to outputs without the plane compiled in at all.
//
//   - Worker-count invariance when enabled. Counters and histograms only
//     accumulate through commutative atomic additions, so their totals
//     depend on *which* events happened, never on the schedule that
//     interleaved them; gauges must only be Set from single-threaded
//     phases. Snapshots sort by metric name and read no wall clock, so a
//     snapshot is byte-identical at any -workers value. Wall-clock phase
//     timings are collected separately (see StartPhase) and are excluded
//     from Snapshot and from the manifest fingerprint.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from Registry.Counter. All methods are nil-safe.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (no-op on a nil counter).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric. To keep snapshots worker-count
// invariant, Set must only be called from single-threaded phases
// (construction, post-processing) — never from racing trial workers.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set records v (no-op on a nil gauge).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last value set (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution over int64 observations. An
// observation v lands in the first bucket whose upper bound is >= v
// (inclusive bounds); values above every bound land in the overflow
// bucket, rendered with bound +Inf. Buckets are fixed at registration so
// two runs — at any worker count — always agree on the layout.
type Histogram struct {
	name   string
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Int64
}

// Observe records v (no-op on a nil histogram).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry holds one run's metrics. The zero value is not usable; a nil
// *Registry is the disabled plane: it hands out nil handles and empty
// snapshots. Handle registration takes the registry mutex; the handles
// themselves are lock-free, so hot paths register once and increment often.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   []PhaseTiming
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, registering it on first use. Returns
// nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// inclusive upper bounds on first use. Bounds must be strictly increasing;
// later calls reuse the first registration's bounds (the layout is fixed
// for the run). Panics on empty or non-increasing bounds — a registration
// bug, not a runtime condition.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h != nil {
		return h
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q registered with no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	h = &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// StartPhase starts a named wall-clock phase and returns its stop func.
// Phase timings go into the run manifest for humans; they are volatile by
// definition and excluded from Snapshot and the manifest fingerprint.
// Phases must start and stop from a single goroutine so their order is
// deterministic. Nil-safe: a nil registry returns a no-op stop.
func (r *Registry) StartPhase(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		secs := time.Since(start).Seconds()
		r.mu.Lock()
		r.phases = append(r.phases, PhaseTiming{Name: name, Seconds: secs})
		r.mu.Unlock()
	}
}

// Phases returns the recorded phase timings in completion order (a copy).
func (r *Registry) Phases() []PhaseTiming {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]PhaseTiming(nil), r.phases...)
}

// Bucket is one histogram bucket in a snapshot. Le is the inclusive upper
// bound; math.MaxInt64 encodes the overflow (+Inf) bucket. Count is the
// per-bucket (not cumulative) observation count.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// InfBound is the Le value of the overflow bucket.
const InfBound = math.MaxInt64

// SnapshotMetric is one metric's frozen state.
type SnapshotMetric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"
	// Value is the counter/gauge value; for histograms, the observation
	// count (with Sum and Buckets carrying the distribution).
	Value   int64    `json:"value"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a frozen, name-sorted view of a registry. Equal runs produce
// byte-identical JSON regardless of worker count or registration order.
type Snapshot struct {
	Metrics []SnapshotMetric `json:"metrics"`
}

// Snapshot freezes the registry. Sorted by metric name; empty (never nil
// Metrics) for a nil registry so JSON output is stable either way.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Metrics: []SnapshotMetric{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Metrics = append(s.Metrics, SnapshotMetric{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Metrics = append(s.Metrics, SnapshotMetric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		m := SnapshotMetric{Name: name, Kind: "histogram", Value: h.Count(), Sum: h.Sum()}
		for i, b := range h.bounds {
			m.Buckets = append(m.Buckets, Bucket{Le: b, Count: h.counts[i].Load()})
		}
		m.Buckets = append(m.Buckets, Bucket{Le: InfBound, Count: h.counts[len(h.bounds)].Load()})
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters and gauges as-is, histograms with cumulative le
// buckets), for scraping long runs. Metric names are expected to already
// be legal Prometheus identifiers ([a-z0-9_]); the plane's own metrics are.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, m := range s.Metrics {
		switch m.Kind {
		case "counter", "gauge":
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.Name, m.Kind, m.Name, m.Value); err != nil {
				return err
			}
		case "histogram":
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", m.Name); err != nil {
				return err
			}
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				le := fmt.Sprintf("%d", b.Le)
				if b.Le == InfBound {
					le = "+Inf"
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", m.Name, m.Sum, m.Name, m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
