package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is the part of BENCHMARK.json -compare reads: directions and
// regression bounds of the end-to-end metrics.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// side is one set of runs of one commit: per workload, the values of each
// end-to-end metric (one per run, or one run's per-repetition samples when
// the set is a single run), the digests seen and the failure tallies.
type side struct {
	values   map[string]map[string][]float64
	digests  map[string]map[string]bool
	failed   map[string]int
	attempts map[string]int
}

func readSide(paths []string) (*side, error) {
	s := &side{
		values: map[string]map[string][]float64{}, digests: map[string]map[string]bool{},
		failed: map[string]int{}, attempts: map[string]int{},
	}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(buf, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rep.Workloads {
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
				s.digests[r.Workload] = map[string]bool{}
			}
			s.digests[r.Workload][fmt.Sprintf("seed %d: %s", r.Seed, r.SimDigest)] = true
			s.failed[r.Workload] += r.Failed
			s.attempts[r.Workload] += r.Attempted
			for name, mv := range r.EndToEnd {
				vals := []float64{mv.Value}
				if len(paths) == 1 {
					vals = mv.Samples
				}
				s.values[r.Workload][name] = append(s.values[r.Workload][name], vals...)
			}
		}
	}
	return s, nil
}

// compareReports prints one row per (workload, end-to-end metric) judging
// set b against set a by BENCHMARK.json's bounds, and reports whether any
// row is "worse". Every ratio is printed with its base.
func compareReports(w io.Writer, manifestPath string, aPaths, bPaths []string) (worse bool, err error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readSide(aPaths)
	if err != nil {
		return false, err
	}
	b, err := readSide(bPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-18s %-22s %-12s %14s %14s %9s %8s %8s\n", "workload", "metric", "verdict", "a (base)", "b", "b/a", "spread", "bound")
	for _, wl := range m.Workloads {
		av, bv := a.values[wl.Name], b.values[wl.Name]
		if av == nil || bv == nil {
			continue
		}
		for _, em := range m.EndToEnd {
			va, vb := av[em.Name], bv[em.Name]
			if len(va) == 0 || len(vb) == 0 || em.Bound == nil {
				continue
			}
			verdict, ratio, sp := judge(va, vb, em.Better == "higher", *em.Bound)
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "%-18s %-22s %-12s %14.6g %14.6g %9.4f %8.4f %8.4f\n",
				wl.Name, em.Name, verdict, median(va), median(vb), ratio, sp, *em.Bound)
		}
		if !sameSet(a.digests[wl.Name], b.digests[wl.Name]) {
			fmt.Fprintf(w, "%-18s WARNING sim_digest differs: a %v, b %v (a speed-only change must leave it unchanged)\n",
				wl.Name, keys(a.digests[wl.Name]), keys(b.digests[wl.Name]))
		}
		fa := float64(a.failed[wl.Name]) / float64(max(a.attempts[wl.Name], 1))
		fb := float64(b.failed[wl.Name]) / float64(max(b.attempts[wl.Name], 1))
		if fb > fa {
			worse = true
			fmt.Fprintf(w, "%-18s %-22s %-12s %14.6g %14.6g\n", wl.Name, "failed_frac", "worse", fa, fb)
		}
	}
	return worse, nil
}

// judge classifies b against a. A metric whose run-to-run spread is wider
// than the bound is unresolved rather than unchanged, unless every value
// of one side beats every value of the other.
func judge(a, b []float64, higherBetter bool, bound float64) (verdict string, ratio, sp float64) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	sp = max(spread(a), spread(b))
	// gain > 0 when b is better, as a share of a's median.
	gain := (mb - ma) / ma
	if !higherBetter {
		gain = -gain
	}
	sa, sb := sorted(a), sorted(b)
	bAllBetter := sb[0] > sa[len(sa)-1]
	bAllWorse := sb[len(sb)-1] < sa[0]
	if !higherBetter {
		bAllBetter, bAllWorse = sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1]
	}
	switch {
	case sp > bound && !(bAllBetter || (bAllWorse && gain < -bound)):
		return "unresolved", ratio, sp
	case gain < -bound:
		return "worse", ratio, sp
	case gain > bound:
		return "better", ratio, sp
	default:
		return "within-bound", ratio, sp
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
