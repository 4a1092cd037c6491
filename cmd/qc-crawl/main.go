// Command qc-crawl builds a calibrated synthetic Gnutella population,
// crawls it with the Cruiser-style wire crawler and writes the observed
// object trace (the input of Figures 1–3 and 7).
//
// Substrate faults (dial timeouts, handshake stalls, mid-stream resets,
// truncated writes, peer departures, flood message loss) can be injected
// to measure how a lossy network biases the trace; -fault-sweep runs the
// full degradation experiment and emits a .dat table of crawl coverage
// and flood success vs. fault rate.
//
// Usage:
//
//	qc-crawl -peers 1000 -objects 81000 -seed 42 -o crawl.trace
//	qc-crawl -peers 1000 -objects 81000 -fault-dial 0.2 -fault-reset 0.1 -attempts 4
//	qc-crawl -fault-sweep -scale small -o faults.dat
//	qc-crawl -peers 200 -objects 4000 -metrics   # also write out/RUN_qc-crawl_*.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	qc "querycentric"
	"querycentric/internal/cliflags"
	"querycentric/internal/parallel"
)

func main() {
	var (
		peers      = flag.Int("peers", 1000, "number of peers in the network")
		objects    = flag.Int("objects", 81000, "number of distinct objects")
		firewalled = flag.Float64("firewalled", 0.1, "fraction of peers refusing crawler connections")
		seed       = cliflags.AddSeed(flag.CommandLine)
		out        = flag.String("o", "", "output file (default stdout)")

		// Injected substrate faults (all default to zero: no faults).
		faultDial      = flag.Float64("fault-dial", 0, "probability a dial attempt times out")
		faultHandshake = flag.Float64("fault-handshake", 0, "probability the servent stalls the handshake")
		faultReset     = flag.Float64("fault-reset", 0, "probability a connection is reset mid-stream")
		faultTruncate  = flag.Float64("fault-truncate", 0, "probability the response stream is truncated mid-descriptor")
		faultDepart    = flag.Float64("fault-depart", 0, "per-descriptor probability the peer departs mid-session")
		faultLoss      = flag.Float64("fault-loss", 0, "per-hop probability a flooded descriptor is lost")
		faultSeed      = flag.Uint64("fault-seed", 0, "fault schedule seed (default: root seed)")
		attempts       = flag.Int("attempts", 0, "per-peer crawl attempt budget (0 = crawler default)")

		// Fault-sweep experiment mode.
		sweep      = flag.Bool("fault-sweep", false, "run the fault-rate sweep experiment instead of a single crawl")
		sweepRates = flag.String("fault-rates", "", "comma-separated fault rates to sweep (default 0,0.05,0.1,0.2,0.3,0.4,0.5)")
		sweepDead  = flag.Float64("dead", 0, "fraction of peers offline (churn liveness mask) at non-zero sweep rates")
		scaleName  = cliflags.AddScale(flag.CommandLine, "default")
		workers    = cliflags.AddWorkers(flag.CommandLine)
		profiles   = cliflags.AddProfiles(flag.CommandLine)
		obsFlags   = cliflags.AddObs(flag.CommandLine, "qc-crawl")
		snapFlags  = cliflags.AddSnapshot(flag.CommandLine)
	)
	flag.Parse()

	if err := cliflags.CheckWorkers(*workers); err != nil {
		fail(err)
	}
	if err := cliflags.CheckPositive("-peers", *peers); err != nil {
		fail(err)
	}
	if err := cliflags.CheckPositive("-objects", *objects); err != nil {
		fail(err)
	}
	if err := cliflags.CheckNonNegative("-attempts", *attempts); err != nil {
		fail(err)
	}
	for _, fr := range []struct {
		name string
		v    float64
	}{
		{"-firewalled", *firewalled},
		{"-fault-dial", *faultDial},
		{"-fault-handshake", *faultHandshake},
		{"-fault-reset", *faultReset},
		{"-fault-truncate", *faultTruncate},
		{"-fault-depart", *faultDepart},
		{"-fault-loss", *faultLoss},
		{"-dead", *sweepDead},
	} {
		if err := cliflags.CheckFrac(fr.name, fr.v); err != nil {
			fail(err)
		}
	}

	finishProfiles, err := profiles.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := finishProfiles(); err != nil {
			fail(err)
		}
	}()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}

	if *sweep {
		runSweep(w, *scaleName, *seed, *sweepRates, *sweepDead, *attempts, *workers, obsFlags)
		return
	}

	reg, traces := obsFlags.Setup()
	if reg != nil {
		parallel.Instrument(reg)
	}
	fseed := *faultSeed
	if fseed == 0 {
		fseed = *seed
	}
	tr, stats, err := qc.GnutellaCrawl(qc.GnutellaCrawlConfig{
		Seed:           *seed,
		Peers:          *peers,
		UniqueObjects:  *objects,
		FirewalledFrac: *firewalled,
		Faults: qc.FaultConfig{
			Seed:           fseed,
			DialTimeout:    *faultDial,
			HandshakeStall: *faultHandshake,
			ConnReset:      *faultReset,
			TruncateWrite:  *faultTruncate,
			PeerDepart:     *faultDepart,
			MessageLoss:    *faultLoss,
		},
		MaxAttempts:  *attempts,
		Obs:          reg,
		FloodTraces:  traces,
		SnapshotSave: snapFlags.Save,
		SnapshotLoad: snapFlags.Load,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "qc-crawl: %s; %d records\n", stats, len(tr.Records))
	if err := tr.Write(w); err != nil {
		fail(err)
	}
	writeManifest(obsFlags, "", "", *seed, *workers)
}

// runSweep runs the fault-rate degradation experiment and writes the .dat
// table (rate, coverage, partial, failed, record fraction, retries, flood
// success).
func runSweep(w io.Writer, scaleName string, seed uint64, ratesCSV string, dead float64, attempts, workers int, obsFlags *cliflags.ObsFlags) {
	scale, err := qc.ParseScale(scaleName)
	if err != nil {
		fail(err)
	}
	var rates []float64
	if ratesCSV != "" {
		for _, part := range strings.Split(ratesCSV, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fail(fmt.Errorf("bad fault rate %q: %w", part, err))
			}
			if err := cliflags.CheckFrac("-fault-rates", r); err != nil {
				fail(err)
			}
			rates = append(rates, r)
		}
	}
	env := qc.NewEnv(scale, seed)
	env.Workers = workers
	env.Obs, env.FloodTraces = obsFlags.Setup()
	if env.Obs != nil {
		parallel.Instrument(env.Obs)
	}
	res, err := qc.FaultSweepWith(env, qc.FaultSweepConfig{
		Rates:       rates,
		DeadFrac:    dead,
		MaxAttempts: attempts,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(w, "# fault sweep: %d peers, dead_frac %.2f, %d attempts/peer\n",
		res.Peers, res.DeadFrac, res.MaxAttempts)
	if err := qc.WriteResultTable(w, res); err != nil {
		fail(err)
	}
	writeManifest(obsFlags, "fault-sweep", scale.String(), seed, workers)
}

func writeManifest(obsFlags *cliflags.ObsFlags, mode, scale string, seed uint64, workers int) {
	if path, err := obsFlags.WriteManifest(mode, scale, seed, workers); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-crawl: wrote %s\n", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-crawl:", err)
	os.Exit(1)
}
