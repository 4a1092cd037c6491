// Command qc-analyze runs the paper's analyses over trace files produced
// by qc-crawl, qc-itunes and qc-queries.
//
// Modes:
//
//	qc-analyze -mode replicas  -in crawl.trace [-sanitize]
//	qc-analyze -mode terms     -in crawl.trace
//	qc-analyze -mode annotations -in itunes.trace
//	qc-analyze -mode stability -in queries.trace [-interval 3600]
//	qc-analyze -mode mismatch  -in queries.trace -crawl crawl.trace
//	qc-analyze -mode transients -in queries.trace [-interval 3600]
//	qc-analyze -mode track     -in queries.trace [-crawl crawl.trace]
//
// Track mode runs the online interval engine over the query stream, one
// line per evaluation interval up to the last query's: query volume,
// popular set size, stability against the previous interval, the mismatch
// against the crawl's popular file terms when -crawl is given, and the
// transiently popular terms. Transients are judged as -mode transients
// judges them, against the first 10% of the queries, so a trace too short
// to train on fails. It is the paper's analysis as a streaming tool — what
// a peer would run over its live query feed:
//
//	qc-queries -n 100000 | qc-analyze -mode track
//
// An empty -in reads the trace from stdin. Output is tab-separated series
// on stdout with a human summary on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	qc "querycentric"
	"querycentric/internal/cliflags"
)

func main() {
	var (
		mode     = flag.String("mode", "replicas", "replicas|terms|annotations|stability|mismatch|transients|track")
		in       = flag.String("in", "", "input trace file (default stdin)")
		crawlIn  = flag.String("crawl", "", "object trace (mismatch mode; track mode adds a mismatch column)")
		sanitize = flag.Bool("sanitize", false, "sanitize names (replicas mode, Figure 2)")
		interval = flag.Int64("interval", 3600, "evaluation interval in seconds")
		obsFlags = cliflags.AddObs(flag.CommandLine, "qc-analyze")
	)
	flag.Parse()
	if err := cliflags.CheckPositiveSeconds("-interval", *interval); err != nil {
		fail(err)
	}
	reg, _ := obsFlags.Setup()
	switch *mode {
	case "replicas", "terms":
		tr := read(*in, qc.ReadObjectTrace)
		reg.Gauge("analyze_object_records").Set(int64(len(tr.Records)))
		var rep *qc.DistReport
		if *mode == "terms" {
			rep = qc.TermPeers(tr)
		} else {
			rep = qc.Replicas(tr, *sanitize)
		}
		fmt.Fprintf(os.Stderr, "%s: %s ≤37peers=%.2f%% ≥20peers=%.2f%%\n",
			*mode, rep, 100*rep.FracAtMost(37), 100*rep.FracAtLeast(20))
		fmt.Println("# rank\tcount")
		for _, p := range rep.RankFreq() {
			fmt.Printf("%d\t%d\n", p.Rank, p.Count)
		}
	case "annotations":
		tr := read(*in, qc.ReadSongTrace)
		reg.Gauge("analyze_song_records").Set(int64(len(tr.Records)))
		for _, a := range []qc.Annotation{qc.AnnotationSong, qc.AnnotationGenre, qc.AnnotationAlbum, qc.AnnotationArtist} {
			rep, err := qc.Annotations(tr, a)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%s\tunique=%d\tsingleton=%.3f\tmissing=%.3f\tzipf_s=%.2f\n",
				a, rep.Unique, rep.SingletonFrac, rep.MissingFrac, rep.Fit.S)
		}
	case "stability":
		qt := read(*in, qc.ReadQueryTrace)
		reg.Gauge("analyze_query_records").Set(int64(len(qt.Records)))
		cfg := qc.DefaultIntervalConfig()
		cfg.Interval = *interval
		ivs, err := qc.Intervals(qt, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println("# start\tjaccard")
		for _, p := range qc.StabilitySeries(ivs) {
			fmt.Printf("%d\t%.4f\n", p.Start, p.Value)
		}
	case "mismatch":
		if *crawlIn == "" {
			fail(fmt.Errorf("mismatch mode needs -crawl"))
		}
		qt := read(*in, qc.ReadQueryTrace)
		tr := read(*crawlIn, qc.ReadObjectTrace)
		reg.Gauge("analyze_query_records").Set(int64(len(qt.Records)))
		reg.Gauge("analyze_object_records").Set(int64(len(tr.Records)))
		cfg := qc.DefaultIntervalConfig()
		cfg.Interval = *interval
		ivs, err := qc.Intervals(qt, cfg)
		if err != nil {
			fail(err)
		}
		fstar := qc.TopTerms(qc.RankedFileTerms(tr), 500)
		fmt.Println("# start\tpopular_vs_fstar\tall_vs_fstar")
		all := qc.AllTermsMismatchSeries(ivs, fstar)
		for i, p := range qc.MismatchSeries(ivs, fstar) {
			fmt.Printf("%d\t%.4f\t%.4f\n", p.Start, p.Value, all[i].Value)
		}
	case "transients":
		qt := read(*in, qc.ReadQueryTrace)
		reg.Gauge("analyze_query_records").Set(int64(len(qt.Records)))
		pts, err := qc.Transients(qt, *interval, qc.DefaultTransientConfig())
		if err != nil {
			fail(err)
		}
		sum := qc.TransientSummary(pts)
		fmt.Fprintf(os.Stderr, "transients: %s\n", sum)
		fmt.Println("# start\tcount")
		for _, p := range pts {
			fmt.Printf("%d\t%d\n", p.Start, p.Count)
		}
	case "track":
		qt := read(*in, qc.ReadQueryTrace)
		var fstar map[string]struct{}
		if *crawlIn != "" {
			fstar = qc.TopTerms(qc.RankedFileTerms(read(*crawlIn, qc.ReadObjectTrace)), 500)
		}
		track(qt, fstar, *interval, reg)
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	if path, err := obsFlags.WriteManifest(*mode, "", 0, 1); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-analyze: wrote %s\n", path)
	}
}

// track feeds the query trace through an interval engine and prints one
// line per closed interval. fstar, when non-nil, adds the mismatch column.
// Output is held until the run succeeds, so a failure prints no rows.
func track(qt *qc.QueryTrace, fstar map[string]struct{}, interval int64, reg *qc.Registry) {
	var out strings.Builder
	header := "# start\tqueries\tpopular\tstability"
	if fstar != nil {
		header += "\tmismatch"
	}
	out.WriteString(header + "\ttransients\n")
	cfg := qc.DefaultIntervalConfig()
	cfg.Interval = interval
	eng, err := qc.NewIntervalEngine(cfg, func(iv *qc.Interval) {
		var transients []string
		if iv.Transient != nil {
			transients = iv.Transient.Terms
		}
		reg.Counter("track_intervals_total").Inc()
		reg.Counter("track_queries_total").Add(int64(iv.Queries))
		reg.Counter("track_transients_total").Add(int64(len(transients)))
		fmt.Fprintf(&out, "%d\t%d\t%d\t%.3f", iv.Start, iv.Queries, len(iv.Popular), iv.Stability)
		if fstar != nil {
			fmt.Fprintf(&out, "\t%.3f", qc.Mismatch(iv.Popular, fstar))
		}
		out.WriteString("\t" + strings.Join(transients, ",") + "\n")
	})
	if err != nil {
		fail(err)
	}
	if err := eng.Train(len(qt.Records), qc.DefaultTransientConfig()); err != nil {
		fail(err)
	}
	for _, rec := range qt.Records {
		if err := eng.Observe(rec.Time, rec.Query); err != nil {
			fail(err)
		}
	}
	// Train accepted the trace, so it holds at least two records.
	eng.CloseThrough(qt.Records[len(qt.Records)-1].Time + 1)
	fmt.Print(out.String())
}

// read parses a trace from path, or from stdin when path is empty.
func read[T any](path string, parse func(io.Reader) (T, error)) T {
	r := io.Reader(os.Stdin)
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	tr, err := parse(r)
	if err != nil {
		fail(err)
	}
	return tr
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-analyze:", err)
	os.Exit(1)
}
