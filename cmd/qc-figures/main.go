// Command qc-figures regenerates every table and figure of the paper in
// one run: each Figure entry of the experiment registry, in order, writing
// its data file and noting its headline statistics against the paper's
// reported values in a summary.
//
// Usage:
//
//	qc-figures -scale default -seed 42 -out out/
//	qc-figures -scale tiny -metrics       # also write out/RUN_qc-figures_*.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	qc "querycentric"
	"querycentric/internal/cliflags"
	"querycentric/internal/parallel"
)

func main() {
	var (
		scaleName = cliflags.AddScale(flag.CommandLine, "default")
		seed      = cliflags.AddSeed(flag.CommandLine)
		outDir    = flag.String("out", "out", "output directory")
		workers   = cliflags.AddWorkers(flag.CommandLine)
		profiles  = cliflags.AddProfiles(flag.CommandLine)
		obsFlags  = cliflags.AddObs(flag.CommandLine, "qc-figures")
		snapFlags = cliflags.AddSnapshot(flag.CommandLine)
	)
	flag.Parse()
	scale, err := qc.ParseScale(*scaleName)
	if err != nil {
		fail(err)
	}
	if err := cliflags.CheckWorkers(*workers); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
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
	env := qc.NewEnv(scale, *seed)
	env.Workers = *workers
	env.SnapshotSave, env.SnapshotLoad = snapFlags.Save, snapFlags.Load
	env.Obs, env.FloodTraces = obsFlags.Setup()
	if env.Obs != nil {
		parallel.Instrument(env.Obs)
	}
	var sum bytes.Buffer
	notes := io.MultiWriter(os.Stdout, &sum)
	fmt.Fprintf(notes, "qc-figures scale=%s seed=%d\n", scale, *seed)
	for _, r := range qc.Runners {
		if !r.Figure {
			continue
		}
		res, err := r.Run(env)
		if err != nil {
			fail(err)
		}
		if r.Dat != "" {
			err := cliflags.WriteOutput(filepath.Join(*outDir, r.Dat+".dat"), func(w io.Writer) error {
				return qc.WriteResultTable(w, res)
			})
			if err != nil {
				fail(err)
			}
		}
		if err := r.WriteSummary(notes, res); err != nil {
			fail(err)
		}
	}
	err = cliflags.WriteOutput(filepath.Join(*outDir, "summary.txt"), func(w io.Writer) error {
		_, err := sum.WriteTo(w)
		return err
	})
	if err != nil {
		fail(err)
	}
	if path, err := obsFlags.WriteManifest("", scale.String(), *seed, *workers); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-figures: wrote %s\n", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-figures:", err)
	os.Exit(1)
}
