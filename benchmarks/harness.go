package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// options selects one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // measured time per run: repetitions continue until their timed work adds up to this
	trace    bool
	smoke    bool
	tmpDir   string // scratch directory for snapshot files, created and removed by the run
}

// envInfo is recorded in every report: numbers from different machines or
// worker counts must not be compared silently.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	e := envInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    benchWorkers(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// benchWorkers is the fan-out handed to the program's own internal/parallel
// pools: never more threads than CPUs, capped so numbers from bigger boxes
// stay comparable.
func benchWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// sample is what one timed repetition of a workload produced.
type sample struct {
	ops    int           // searches completed
	wall   time.Duration // wall-clock of the timed region
	latUS  []float64     // per-search host latency where one search is one call; nil otherwise
	digest uint64        // hash over the simulated statistics
	errs   int           // searches that returned an error
}

// instance is one set-up copy of a workload's inputs.
type instance interface {
	// measure runs the timed work once.
	measure(b *bench) (*sample, error)
	// verify checks the program's outputs outside the timed region and
	// returns one message per failed check.
	verify(b *bench, s *sample) []string
	// reset prepares a second measure on inputs the first one consumed.
	reset(b *bench) error
	// layers runs the traced run's probes and derives per-layer metrics
	// from the spans and from the last measure's outputs.
	layers(b *bench, s *sample) error
	close() error
}

// bench is the state of one run of one workload.
type bench struct {
	opts    options
	sz      sizes
	tr      *tracer
	workers int
	rep     int
	layer   map[string]float64 // per-layer metric values gathered so far
}

// set records a per-layer metric; the name must be catalogued.
func (b *bench) set(name string, v float64) {
	if _, ok := perLayerIndex[name]; !ok {
		panic("benchmarks: metric " + name + " is not in the catalogue")
	}
	b.layer[name] = v
}

var perLayerIndex = func() map[string]int {
	m := map[string]int{}
	for i, d := range perLayer {
		m[d.Name] = i
	}
	return m
}()

// metricValue is one reported metric. Samples holds the per-repetition
// values behind an end-to-end metric so -compare can judge spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Reps      int                    `json:"reps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	SimDigest string                 `json:"sim_digest"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// setups maps each frozen workload name to its set-up function, which
// builds the inputs from the seed and warms them up.
var setups = map[string]func(b *bench) (instance, error){
	"flood_miss":        func(b *bench) (instance, error) { return setupFlood(b, false) },
	"flood_hit":         func(b *bench) (instance, error) { return setupFlood(b, true) },
	"overload_scenario": setupScenario,
	"five_arm":          setupFiveArm,
	"graph_fig8":        setupFig8,
	"snapshot_cold":     setupSnapshot,
}

// runWorkload executes one workload closed-loop from this goroutine. Each
// repetition sets the inputs up from the seed again (so set-up time and
// retained heap are sampled as often as throughput is), runs the timed
// work once and releases everything. An end-to-end run repeats until the
// timed work adds up to opts.seconds (at least sz.minReps times) with
// tracing off. A traced run records spans around set-up, then runs the
// timed work twice on the same inputs — tracing off, then on; their
// throughput ratio is the tracing overhead — and its last repetition runs
// the per-layer probes.
func runWorkload(opts options) (*result, *tracer, error) {
	setup, ok := setups[opts.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	b := &bench{opts: opts, sz: fullSizes, tr: newTracer(), workers: benchWorkers(), layer: map[string]float64{}}
	if opts.smoke {
		b.sz = smokeSizes
	}
	if err := os.MkdirAll(opts.tmpDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer func() {
		os.RemoveAll(opts.tmpDir)
		os.Remove(filepath.Dir(opts.tmpDir)) // .bench_build, when this run created it and left it empty
	}()

	res := &result{Workload: opts.workload, Seed: opts.seed, Trace: opts.trace, Smoke: opts.smoke}
	var setupS, heapMiB, qps, tracedQPS, perRepP50, lat []float64
	var measured time.Duration
	var first uint64
	fail := func(format string, args ...any) { res.Failures = append(res.Failures, fmt.Sprintf(format, args...)) }
	for b.rep = 0; ; b.rep++ {
		b.tr.on = opts.trace
		t0 := time.Now()
		sp := b.tr.begin("setup", -1)
		inst, err := setup(b)
		b.tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", opts.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heapMiB = append(heapMiB, heapAllocMiB())

		s, err := b.runRep(inst, res, &tracedQPS)
		if err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("%s: %w", opts.workload, err)
		}
		measured += s.wall
		qps = append(qps, float64(s.ops)/s.wall.Seconds())
		if s.latUS != nil {
			lat = append(lat, s.latUS...)
			perRepP50 = append(perRepP50, median(s.latUS))
		} else {
			perRepP50 = append(perRepP50, s.wall.Seconds()*1e6/float64(s.ops))
		}

		// Outputs are checked once; later repetitions rebuild the same
		// inputs from the same seed, so an equal digest carries the check.
		if b.rep == 0 {
			first = s.digest
			res.Failures = append(res.Failures, inst.verify(b, s)...)
		} else if s.digest != first {
			fail("repetition %d: sim_digest %s differs from the first repetition's %s", b.rep, hex64(s.digest), hex64(first))
		}
		last := b.rep+1 >= b.sz.minReps && measured.Seconds() >= opts.seconds
		if opts.trace {
			last = b.rep+1 >= b.sz.tracedReps
			if last {
				if err := inst.layers(b, s); err != nil {
					inst.close()
					return nil, nil, fmt.Errorf("%s: layer probes: %w", opts.workload, err)
				}
			}
		}
		if err := inst.close(); err != nil {
			return nil, nil, fmt.Errorf("%s: close: %w", opts.workload, err)
		}
		if last {
			break
		}
	}
	res.Reps = b.rep + 1
	res.SimDigest = hex64(first)

	p50 := perRepP50
	if lat != nil {
		p50 = lat
	}
	// values behind each end-to-end metric, and the per-repetition samples.
	e2e := map[string][2][]float64{
		"setup_s":              {setupS, setupS},
		"queries_per_s":        {qps, qps},
		"query_p50_us":         {p50, perRepP50},
		"heap_after_setup_mib": {heapMiB, heapMiB},
	}
	res.EndToEnd = map[string]metricValue{}
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = summarize(e2e[d.Name][0], e2e[d.Name][1], d.Unit)
	}
	if opts.trace {
		if err := b.tr.check(); err != nil {
			fail("%v", err)
		}
		b.set("trace.overhead_frac", 1-median(tracedQPS)/median(qps))
		b.set("trace.spans", float64(len(b.tr.spans)))
		res.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			// A layer this workload never crosses reports 0.
			res.PerLayer[d.Name] = metricValue{Value: b.layer[d.Name], Unit: d.Unit}
		}
	}
	res.Failed = min(res.Failed+len(res.Failures), res.Attempted)
	return res, b.tr, nil
}

// runRep runs one repetition's timed work with tracing off and returns
// that sample; a traced run then repeats the work on the same inputs with
// tracing on, which must reproduce the digest.
func (b *bench) runRep(inst instance, res *result, tracedQPS *[]float64) (*sample, error) {
	b.tr.on = false
	s, err := inst.measure(b)
	if err != nil {
		return nil, err
	}
	res.Attempted += s.ops
	res.Failed += s.errs
	if !b.opts.trace {
		return s, nil
	}
	b.tr.on = true
	if err := inst.reset(b); err != nil {
		return nil, err
	}
	sp := b.tr.begin("measure", -1)
	ts, err := inst.measure(b)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	res.Attempted += ts.ops
	res.Failed += ts.errs
	*tracedQPS = append(*tracedQPS, float64(ts.ops)/ts.wall.Seconds())
	if ts.digest != s.digest {
		res.Failures = append(res.Failures, fmt.Sprintf("traced sim_digest %s differs from the untraced %s", hex64(ts.digest), hex64(s.digest)))
	}
	return s, nil
}

// summarize reports the median of values with its quartiles; samples are
// the per-repetition values kept for -compare.
func summarize(values, samples []float64, unit string) metricValue {
	mv := metricValue{Value: median(values), Unit: unit, N: len(values), Samples: samples}
	mv.Q1, mv.Q3 = quartiles(values)
	return mv
}

// heapAllocMiB is the live heap after two forced collections: the second
// empties the sync.Pool victim caches the first one filled, whose contents
// would otherwise make a small heap read differently from run to run.
func heapAllocMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// trimmedMean is the mean of v without its frac smallest and frac largest
// values.
func trimmedMean(v []float64, frac float64) float64 {
	s := sorted(v)
	cut := int(frac * float64(len(s)))
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile interpolates linearly on an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	return quantile(s, 0.25), quantile(s, 0.75)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
