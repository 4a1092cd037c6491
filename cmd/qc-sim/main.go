// Command qc-sim runs one experiment of the registry (experiments.Runners):
// the search simulations of Section V and the extensions built on them.
// The table goes to stdout between the mode's header and footer lines, its
// summary lines to stderr; -h lists the modes and their flags.
//
//	qc-sim -mode fig8 -scale default -seed 42
//	qc-sim -mode query-centric -scale tiny -repl-scheme sqrt
//	qc-sim -mode fig8 -metrics                             # also write out/RUN_qc-sim_fig8_*.json
//	qc-sim -mode synopsis -snapshot-save out/net.qcsnap    # persist the substrate
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	qc "querycentric"
	"querycentric/internal/cliflags"
	"querycentric/internal/parallel"
)

func main() {
	var (
		scaleName = cliflags.AddScale(flag.CommandLine, "default")
		seed      = cliflags.AddSeed(flag.CommandLine)
		workers   = cliflags.AddWorkers(flag.CommandLine)
		profiles  = cliflags.AddProfiles(flag.CommandLine)
		obsFlags  = cliflags.AddObs(flag.CommandLine, "qc-sim")
	)
	// Each mode binds its flags on a set of its own; the command line
	// carries their union, and the chosen mode's set receives what was given.
	modes, sets := map[string]qc.Runner{}, map[string]*flag.FlagSet{}
	runs := map[string]func(*qc.Env) (qc.Result, error){}
	modeFlags := map[string]bool{}
	var names []string
	for _, r := range qc.Runners {
		if !r.Sim {
			continue
		}
		fs := flag.NewFlagSet(r.Name, flag.ContinueOnError)
		modes[r.Name], sets[r.Name], runs[r.Name] = r, fs, r.Bind(fs)
		names = append(names, r.Name)
		fs.VisitAll(func(f *flag.Flag) {
			if !modeFlags[f.Name] {
				flag.Var(f.Value, f.Name, f.Usage)
				modeFlags[f.Name] = true
			}
		})
	}
	mode := flag.String("mode", "fig8", strings.Join(names, "|"))
	flag.Parse()
	scale, err := qc.ParseScale(*scaleName)
	if err != nil {
		fail(err)
	}
	if err := cliflags.CheckWorkers(*workers); err != nil {
		fail(err)
	}
	m, ok := modes[*mode]
	if !ok {
		fail(fmt.Errorf("unknown mode %q (%s)", *mode, strings.Join(names, "|")))
	}
	flag.Visit(func(f *flag.Flag) {
		if !modeFlags[f.Name] {
			return
		}
		if sets[m.Name].Lookup(f.Name) == nil {
			fail(fmt.Errorf("-%s does not apply to -mode %s", f.Name, m.Name))
		}
		if err := sets[m.Name].Set(f.Name, f.Value.String()); err != nil {
			fail(err)
		}
	})
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
	env.Obs, env.FloodTraces = obsFlags.Setup()
	env.Windows = obsFlags.Windows()
	if env.Obs != nil {
		parallel.Instrument(env.Obs)
	}
	stopPhase := obsFlags.Registry().StartPhase("sim/" + m.Name)
	res, err := runs[m.Name](env)
	if err != nil {
		fail(err)
	}
	if err := m.Write(os.Stdout, res); err != nil {
		fail(err)
	}
	if err := m.WriteSummary(os.Stderr, res); err != nil {
		fail(err)
	}
	stopPhase()
	if path, err := obsFlags.WriteManifest(m.Name, scale.String(), *seed, *workers); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-sim: wrote %s\n", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-sim:", err)
	os.Exit(1)
}
