// Command qc-queries generates the synthetic one-week Gnutella query trace
// (stable popular core, transient bursts, Zipf tail) — the input of
// Figures 5–7. Passing a crawl trace couples the query vocabulary to the
// observed file terms with the paper's low overlap.
//
// Usage:
//
//	qc-queries -n 250000 -days 7 -crawl crawl.trace -seed 42 -o queries.trace
//	qc-queries -n 250000 -metrics   # also write out/RUN_qc-queries_*.json
package main

import (
	"flag"
	"fmt"
	"os"

	qc "querycentric"
	"querycentric/internal/cliflags"
)

func main() {
	var (
		n        = flag.Int("n", 250000, "number of queries")
		days     = flag.Int("days", 7, "trace duration in days")
		crawl    = flag.String("crawl", "", "object trace whose file terms the workload should (weakly) overlap")
		seed     = cliflags.AddSeed(flag.CommandLine)
		out      = flag.String("o", "", "output trace file (default stdout)")
		obsFlags = cliflags.AddObs(flag.CommandLine, "qc-queries")
	)
	flag.Parse()
	if err := cliflags.CheckPositive("-n", *n); err != nil {
		fail(err)
	}
	if err := cliflags.CheckPositive("-days", *days); err != nil {
		fail(err)
	}
	reg, _ := obsFlags.Setup()

	cfg := qc.QueryWorkloadConfig{Seed: *seed, Queries: *n, Duration: int64(*days) * 24 * 3600}
	if *crawl != "" {
		f, err := os.Open(*crawl)
		if err != nil {
			fail(err)
		}
		tr, err := qc.ReadObjectTrace(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		cfg.FileTerms = qc.RankedFileTermStrings(tr)
		reg.Gauge("queries_file_terms").Set(int64(len(cfg.FileTerms)))
	}
	qt, err := qc.QueryWorkload(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "qc-queries: %d queries over %d seconds\n", len(qt.Records), qt.Duration)
	reg.Counter("queries_generated_total").Add(int64(len(qt.Records)))
	reg.Gauge("queries_duration_seconds").Set(qt.Duration)

	if err := cliflags.WriteOutput(*out, qt.Write); err != nil {
		fail(err)
	}
	if path, err := obsFlags.WriteManifest("", "", *seed, 1); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-queries: wrote %s\n", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-queries:", err)
	os.Exit(1)
}
