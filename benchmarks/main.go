// Command benchmarks is the repository's one benchmark: six named
// workloads that cross every layer of the stack, four end-to-end metrics
// measured with tracing off, and per-layer cost measured from outside — by
// timing the calls this harness makes into each layer's exported functions
// — in a separate traced run. BENCHMARK.json at the repository root names
// the command, the workloads, the metrics and their regression bounds;
// README.md in this directory is the metric catalogue and the measured
// baseline.
//
//	go run ./benchmarks -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1]
//	                    [-json <file>] [-trace-out <file>] [-smoke]
//	go run ./benchmarks -compare a.json[,a2.json...] b.json[,b2.json...]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1). With -workload all there
// is one such line per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// report is the -json file: what -compare reads.
type report struct {
	Env       envInfo   `json:"env"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Workloads []*result `json:"workloads"`
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 42, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 3, "timed work per run in seconds (BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end run, tracing off")
		jsonOut  = flag.String("json", "", "also write the full report (environment, quartiles, samples, sim_digest) to this file")
		traceOut = flag.String("trace-out", "", "with -trace 1: write every recorded span to this file at exit (<file>.<workload> with -workload all)")
		smoke    = flag.Bool("smoke", false, "tiny sizes (hundreds of peers and ops): the self-test's configuration")
		compare  = flag.Bool("compare", false, "compare two sets of -json reports: -compare a.json[,..] b.json[,..]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two arguments, got %d", flag.NArg()))
		}
		worse, err := compareReports(os.Stdout, "BENCHMARK.json", strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *smoke {
		// One repetition unless -seconds asks for more.
		given := false
		flag.Visit(func(f *flag.Flag) { given = given || f.Name == "seconds" })
		if !given {
			*seconds = 0
		}
	}

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	env := currentEnv()
	fmt.Printf("env go=%s num_cpu=%d gomaxprocs=%d workers=%d commit=%s seed=%d\n",
		env.GoVersion, env.NumCPU, env.GoMaxProcs, env.Workers, env.Commit, *seed)
	rep := report{Env: env, Seed: *seed, Seconds: *seconds}
	ok := true
	for _, name := range names {
		res, tr, err := runWorkload(options{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
			tmpDir: filepath.Join(".bench_build", fmt.Sprintf("tmp-%d", os.Getpid())),
		})
		if err != nil {
			fatal(err)
		}
		rep.Workloads = append(rep.Workloads, res)
		if *traceOut != "" && *trace != 0 {
			path := *traceOut
			if len(names) > 1 {
				path += "." + name
			}
			if err := tr.write(path); err != nil {
				fatal(err)
			}
		}
		if err := printResult(os.Stdout, res); err != nil {
			fatal(err)
		}
		ok = ok && res.Failed == 0
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !ok {
		// The result line already says correct=false; the exit code stays
		// 0 so the driver reads it.
		fmt.Fprintln(os.Stderr, "benchmarks: output checks failed (see failures above)")
	}
}

// printResult prints every metric by name with its unit, then the result
// line the driver parses.
func printResult(out io.Writer, res *result) error {
	w := res.Workload
	fmt.Fprintf(out, "workload=%s seed=%d trace=%v reps=%d sim_digest=%s\n", w, res.Seed, res.Trace, res.Reps, res.SimDigest)
	for _, d := range endToEnd {
		mv := res.EndToEnd[d.Name]
		fmt.Fprintf(out, "workload=%s metric=%s value=%.6g unit=%s n=%d q1=%.6g q3=%.6g\n", w, d.Name, mv.Value, mv.Unit, mv.N, mv.Q1, mv.Q3)
	}
	fmt.Fprintf(out, "workload=%s metric=failed_frac value=%.6g unit=ratio attempted=%d failed=%d\n",
		w, float64(res.Failed)/float64(res.Attempted), res.Attempted, res.Failed)
	for _, d := range perLayer {
		if mv, ok := res.PerLayer[d.Name]; ok {
			fmt.Fprintf(out, "workload=%s layer=%s metric=%s value=%.6g unit=%s\n", w, d.Layer, d.Name, mv.Value, mv.Unit)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(out, "workload=%s FAILED %s\n", w, f)
	}
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	src := res.EndToEnd
	if res.Trace {
		src = res.PerLayer
	}
	for name, mv := range src {
		line.Metrics[name] = driverValue{Value: mv.Value, Unit: mv.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", buf)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmarks:", err)
	os.Exit(2)
}
