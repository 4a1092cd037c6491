// Command qc-itunes builds the synthetic iTunes share population (with the
// paper's password/busy/firewall funnel), crawls it over HTTP+DMAP with the
// AppleRecords-style client and writes the observed song trace (the input
// of Figure 4).
//
// Usage:
//
//	qc-itunes -shares 125 -songs 11000 -seed 42 -o itunes.trace
//	qc-itunes -shares 125 -songs 11000 -metrics   # also write out/RUN_qc-itunes_*.json
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
		shares   = flag.Int("shares", 125, "number of shares discovered")
		songs    = flag.Int("songs", 11000, "number of distinct songs")
		seed     = cliflags.AddSeed(flag.CommandLine)
		out      = flag.String("o", "", "output trace file (default stdout)")
		obsFlags = cliflags.AddObs(flag.CommandLine, "qc-itunes")
	)
	flag.Parse()
	if err := cliflags.CheckPositive("-shares", *shares); err != nil {
		fail(err)
	}
	if err := cliflags.CheckPositive("-songs", *songs); err != nil {
		fail(err)
	}
	reg, _ := obsFlags.Setup()

	tr, stats, err := qc.ITunesCrawl(qc.ITunesCrawlConfig{
		Seed:        *seed,
		Shares:      *shares,
		UniqueSongs: *songs,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "qc-itunes: %s; %d records\n", stats, len(tr.Records))
	reg.Gauge("itunes_shares").Set(int64(*shares))
	reg.Gauge("itunes_songs").Set(int64(*songs))
	reg.Counter("itunes_records_total").Add(int64(len(tr.Records)))
	reg.Counter("itunes_collected_total").Add(int64(stats.Collected))
	reg.Counter("itunes_password_total").Add(int64(stats.Password))
	reg.Counter("itunes_busy_total").Add(int64(stats.Busy))
	reg.Counter("itunes_firewalled_total").Add(int64(stats.Firewalled))

	if err := cliflags.WriteOutput(*out, tr.Write); err != nil {
		fail(err)
	}
	if path, err := obsFlags.WriteManifest("", "", *seed, 1); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-itunes: wrote %s\n", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-itunes:", err)
	os.Exit(1)
}
