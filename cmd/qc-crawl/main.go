// Command qc-crawl builds a calibrated synthetic Gnutella population,
// crawls it with the Cruiser-style wire crawler and writes the observed
// object trace (the input of Figures 1–3 and 7).
//
// Substrate faults (dial timeouts, handshake stalls, mid-stream resets,
// truncated writes, peer departures, flood message loss) can be injected
// to measure how a lossy network biases the trace. The full degradation
// experiment — crawl coverage and flood success against fault rate — is
// qc-sim -mode faults.
//
// Usage:
//
//	qc-crawl -peers 1000 -objects 81000 -seed 42 -o crawl.trace
//	qc-crawl -peers 1000 -objects 81000 -fault-dial 0.2 -fault-reset 0.1 -attempts 4
//	qc-crawl -peers 200 -objects 4000 -metrics   # also write out/RUN_qc-crawl_*.json
package main

import (
	"flag"
	"fmt"
	"os"

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

		profiles  = cliflags.AddProfiles(flag.CommandLine)
		obsFlags  = cliflags.AddObs(flag.CommandLine, "qc-crawl")
		snapFlags = cliflags.AddSnapshot(flag.CommandLine)
	)
	flag.Parse()

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
	if err := cliflags.WriteOutput(*out, tr.Write); err != nil {
		fail(err)
	}
	// The population builds at GOMAXPROCS workers (0).
	if path, err := obsFlags.WriteManifest("", "", *seed, 0); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-crawl: wrote %s\n", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-crawl:", err)
	os.Exit(1)
}
