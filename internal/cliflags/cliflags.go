// Package cliflags unifies the flag surface of the qc-* commands: one
// registration helper per shared flag (identical name, default and help
// text everywhere), uniform out-of-range rejection, the snapshot flags
// (-snapshot-save, -snapshot-load), the profiling flags (-cpuprofile,
// -memprofile) and the observability flags (-metrics, -trace-floods,
// -metrics-dir) every command exposes.
//
// Commands register the subset of shared flags they need against their own
// flag.FlagSet (normally flag.CommandLine), parse, validate with the Check
// helpers, write their output with WriteOutput, and — when the
// observability plane is enabled — finish by writing a run manifest with
// ObsFlags.WriteManifest.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"querycentric/internal/obs"
)

// AddScale registers the shared -scale flag with the given default.
func AddScale(fs *flag.FlagSet, def string) *string {
	return fs.String("scale", def, "population scale (tiny|small|default|full|1m)")
}

// AddSeed registers the shared -seed flag.
func AddSeed(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 42, "root random seed")
}

// AddWorkers registers the shared -workers flag.
func AddWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS); results are identical for every value")
}

// SnapshotFlags holds the shared network-snapshot persistence flag values.
type SnapshotFlags struct {
	// Save is a path to persist the built Gnutella population to (empty:
	// don't save). Load restores the population from an existing snapshot
	// instead of rebuilding it (empty: build fresh).
	Save string
	Load string
}

// AddSnapshot registers the shared -snapshot-save/-snapshot-load flags.
func AddSnapshot(fs *flag.FlagSet) *SnapshotFlags {
	s := &SnapshotFlags{}
	fs.StringVar(&s.Save, "snapshot-save", "", "persist the built Gnutella population to this snapshot file, building it shard by shard straight into the file")
	fs.StringVar(&s.Load, "snapshot-load", "", "restore the Gnutella population from this snapshot file, memory-mapped, instead of rebuilding it (byte-identical results)")
	return s
}

// Profiles holds the shared profiling flag values.
type Profiles struct {
	CPU string
	Mem string
}

// AddProfiles registers the shared -cpuprofile/-memprofile flags.
func AddProfiles(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file")
	return p
}

// Start begins CPU profiling into p.CPU (no-op when empty) and returns a
// finish function that stops the CPU profile and, when p.Mem is non-empty,
// writes a heap profile, so flood and trial-engine optimisations can be
// driven by measured profiles. Call finish exactly once, after the measured
// work.
func (p *Profiles) Start() (finish func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}

// ObsFlags holds the observability flag values of one command.
type ObsFlags struct {
	// Command is the qc-* command name, used in the manifest and the
	// RUN_*.json file name.
	Command string
	// Metrics enables the deterministic metrics registry.
	Metrics bool
	// TraceFloods additionally records a bounded deterministic sample of
	// per-flood hop traces (implies Metrics).
	TraceFloods bool
	// Dir is where run manifests are written.
	Dir string

	reg     *obs.Registry
	traces  *obs.FloodTraces
	windows *obs.WindowLog
}

// AddObs registers -metrics, -trace-floods and -metrics-dir for command.
func AddObs(fs *flag.FlagSet, command string) *ObsFlags {
	o := &ObsFlags{Command: command}
	fs.BoolVar(&o.Metrics, "metrics", false, "collect deterministic run metrics and write a RUN_*.json manifest under -metrics-dir")
	fs.BoolVar(&o.TraceFloods, "trace-floods", false, "record a bounded deterministic sample of per-flood hop traces (implies -metrics)")
	fs.StringVar(&o.Dir, "metrics-dir", "out", "directory for run manifests (RUN_*.json plus a .prom exposition sibling)")
	return o
}

// Setup builds the registry (and, with -trace-floods, the trace recorder)
// when the plane is enabled; both are nil when it is not. Call once after
// flag parsing.
func (o *ObsFlags) Setup() (*obs.Registry, *obs.FloodTraces) {
	if o == nil || (!o.Metrics && !o.TraceFloods) {
		return nil, nil
	}
	o.reg = obs.NewRegistry()
	o.windows = obs.NewWindowLog()
	if o.TraceFloods {
		o.traces = obs.NewFloodTraces(0)
	}
	return o.reg, o.traces
}

// Windows returns the windowed-series log built by Setup (nil when the
// plane is disabled). Event-engine modes stream per-window metrics into it;
// WriteManifest folds the series into the manifest and its fingerprint.
func (o *ObsFlags) Windows() *obs.WindowLog {
	if o == nil {
		return nil
	}
	return o.windows
}

// Enabled reports whether Setup built a registry.
func (o *ObsFlags) Enabled() bool { return o != nil && o.reg != nil }

// Registry returns the registry built by Setup (nil when disabled).
func (o *ObsFlags) Registry() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// WriteManifest finalizes the run manifest and writes it as
// <dir>/RUN_<command>[_<mode>][_<scale>]_seed<seed>.json plus a Prometheus
// text-exposition sibling with the .prom extension. It is a no-op (and
// returns "") when the plane is disabled, so commands call it
// unconditionally.
func (o *ObsFlags) WriteManifest(mode, scale string, seed uint64, workers int) (string, error) {
	if !o.Enabled() {
		return "", nil
	}
	m := &obs.Manifest{
		Command: o.Command,
		Mode:    mode,
		Scale:   scale,
		Seed:    seed,
		Workers: workers,
		Phases:  o.reg.Phases(),
		Metrics: o.reg.Snapshot(),
	}
	if o.traces != nil {
		m.FloodTraces = o.traces.Snapshot()
	}
	if o.windows.Len() > 0 {
		m.Windows = o.windows.Snapshot()
	}
	m.Finalize()
	path := filepath.Join(o.Dir, obs.RunFileName(o.Command, mode, scale, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	if err := WriteOutput(path, m.Encode); err != nil {
		return "", err
	}
	prom := strings.TrimSuffix(path, ".json") + ".prom"
	if err := WriteOutput(prom, m.Metrics.WritePrometheus); err != nil {
		return "", err
	}
	return path, nil
}

// WriteOutput writes a command's output through write: to stdout when path
// is empty, otherwise to a temporary file beside path that replaces it only
// once write and Close have both succeeded. A failed run therefore leaves
// an existing file at path as it was.
func WriteOutput(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	err = errors.Join(f.Chmod(0o644), write(f))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// CheckWorkers rejects negative -workers values.
func CheckWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 1, or 0 for GOMAXPROCS; got %d", workers)
	}
	return nil
}

// CheckFrac rejects values outside [0, 1], and NaN, for probability/fraction
// flags.
func CheckFrac(name string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("%s must be in [0,1], got %g", name, v)
	}
	return nil
}

// CheckPositive rejects non-positive values for count flags.
func CheckPositive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be positive, got %d", name, v)
	}
	return nil
}

// CheckNonNegative rejects negative values for count flags.
func CheckNonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0, got %d", name, v)
	}
	return nil
}

// CheckPositiveSeconds rejects non-positive interval flags.
func CheckPositiveSeconds(name string, v int64) error {
	if v <= 0 {
		return fmt.Errorf("%s must be a positive number of seconds, got %d", name, v)
	}
	return nil
}

// CheckOneOf rejects enum-flag values outside the allowed set.
func CheckOneOf(name, v string, allowed ...string) error {
	for _, a := range allowed {
		if v == a {
			return nil
		}
	}
	return fmt.Errorf("%s must be one of %s; got %q", name, strings.Join(allowed, "|"), v)
}
