package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"querycentric/internal/adaptive"
	"querycentric/internal/cliflags"
	"querycentric/internal/crawler"
	"querycentric/internal/gnet"
)

// Runner is one entry of the experiment registry: a runner at its defaults,
// the mode-only flags qc-sim binds for it, and the lines it prints.
type Runner struct {
	// Name keys the entry: qc-sim's -mode value, the gates' subtest name
	// and the key in RUNNER_DIGESTS.txt.
	Name string
	// Sim entries are qc-sim modes; Figure entries are what qc-figures
	// runs, in registry order.
	Sim, Figure bool
	// Dat is the file, less its .dat extension, qc-figures writes the table
	// to; empty writes none.
	Dat string

	run  runFunc
	bind func(*flag.FlagSet) runFunc
	out  func(Result) output // never nil
}

type runFunc = func(*Env) (Result, error)

// output is what an entry prints besides its table: header and footer
// lines around it in qc-sim, and the headline lines qc-figures notes and
// qc-sim writes to stderr.
type output struct{ header, footer, summary []string }

// Bind registers the entry's mode-only flags on fs, each defaulted to the
// value the runner uses, and returns its run, which reads them once fs is
// parsed and rejects out-of-range values before running.
func (r Runner) Bind(fs *flag.FlagSet) func(*Env) (Result, error) {
	if r.bind == nil {
		return r.run
	}
	return r.bind(fs)
}

// Run runs the entry at its defaults: qc-sim -mode Name with no flag of its
// own set.
func (r Runner) Run(e *Env) (Result, error) {
	return r.Bind(flag.NewFlagSet(r.Name, flag.ContinueOnError))(e)
}

// Write renders res as qc-sim prints it: header lines, the table, footer
// lines.
func (r Runner) Write(w io.Writer, res Result) error {
	o := r.out(res)
	return errors.Join(writeLines(w, o.header), WriteTable(w, res), writeLines(w, o.footer))
}

// WriteSummary writes the entry's headline lines for res.
func (r Runner) WriteSummary(w io.Writer, res Result) error { return writeLines(w, r.out(res).summary) }

func writeLines(w io.Writer, lines []string) error {
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// typed adapts a runner to the registry's Result-typed slot.
func typed[R Result](run func(*Env) (R, error)) runFunc {
	return func(e *Env) (Result, error) { return run(e) }
}

// text adapts a typed output renderer to the registry's Result-typed slot.
func text[R Result](out func(R) output) func(Result) output {
	return func(res Result) output { return out(res.(R)) }
}

// line formats one output line.
func line(format string, args ...any) []string { return []string{fmt.Sprintf(format, args...)} }

// summary is an output of one summary line.
func summary(format string, args ...any) output { return output{summary: line(format, args...)} }

// distEntry is the Figure 1–3 entry shape.
func distEntry(name string, run func(*Env) (*DistResult, error), paper string) Runner {
	return Runner{Name: name, Figure: true, Dat: name, run: typed(run), out: text(func(r *DistResult) output {
		return summary("%s: unique=%d singleton=%.1f%% ≤37peers=%.1f%% zipf_s=%.2f  [%s]",
			name, r.Report.Unique, 100*r.SingletonFrac, 100*r.FracAtMost37, r.Report.Fit.S, paper)
	})}
}

// Runners is the experiment registry, in qc-figures order.
var Runners = []Runner{
	distEntry("fig1", Fig1, "paper: 70.5% singleton, 99.5% ≤37 peers"),
	distEntry("fig2", Fig2, "paper: 69.8% singleton, 99.4% ≤37 peers"),
	distEntry("fig3", Fig3, "paper: 71.3% singleton terms, 98.3% ≤37 peers"),
	{Name: "fig4", Figure: true, Dat: "fig4", run: typed(Fig4), out: text(func(r *Fig4Result) (o output) {
		for _, a := range fig4Annotations {
			rep := r.Reports[a]
			o.summary = append(o.summary, fmt.Sprintf("fig4-%s: unique=%d singleton=%.1f%% missing=%.1f%%  [paper: songs 64%% singleton; genre missing 8.7%%; album missing 8.1%%; artists 65%% singleton]",
				a, rep.Unique, 100*rep.SingletonFrac, 100*rep.MissingFrac))
		}
		o.summary = append(o.summary, fmt.Sprintf("fig4 crawl funnel: %s  [paper: 620 discovered, 45 password, 33 busy, 239 readable]", r.CrawlStats))
		return o
	})},
	{Name: "fig5", Figure: true, Dat: "fig5", run: typed(Fig5), out: text(func(r *Fig5Result) (o output) {
		for _, iv := range Fig5Intervals {
			s := r.SummaryByInterval[iv]
			o.summary = append(o.summary, fmt.Sprintf("fig5 interval=%ds: mean=%.2f sd=%.2f max=%.0f  [paper: low mean, significant variance]",
				iv, s.Mean, s.StdDev, s.Max))
		}
		return o
	})},
	{Name: "fig6", Figure: true, Dat: "fig6", run: typed(Fig6), out: text(func(r *Fig6Result) output {
		return summary("fig6: mean stability after warmup = %.3f  [paper: >0.90]", r.MeanAfterWarmup)
	})},
	{Name: "fig7", Figure: true, Dat: "fig7", run: typed(Fig7), out: text(func(r *Fig7Result) output {
		return summary("fig7: mean popular-vs-F* = %.3f, all-terms-vs-F* = %.3f, rank ρ = %.2f  [paper: <0.20, ~0.05, little correlation]",
			r.MeanPopular, r.MeanAllTerms, r.RankCorrelation)
	})},
	// The paper's "consistent across intervals": Figures 6 and 7 over the
	// Figure 5 evaluation intervals.
	{Name: "interval-sweep", Figure: true, Dat: "interval_sweep", run: typed(intervalSweep), out: text(func(r *intervalSweepResult) (o output) {
		for i, s := range r.Stability {
			o.summary = append(o.summary, fmt.Sprintf("interval %ds: stability=%.3f mismatch=%.3f  [paper: consistent across 15–120 min]",
				s.Interval, s.MeanValue, r.Mismatch[i].MeanValue))
		}
		return o
	})},
	{Name: "rare-objects", Figure: true, run: typed(RareObjectFraction), out: text(func(r *RareObjectResult) output {
		return summary("rare-objects: %.2f%% of objects on ≥20 peers, mean replicas %.2f  [paper: <4%%, mean ~1.5]", 100*r.FracAtLeast20, r.MeanReplicas)
	})},
	{Name: "coverage", Sim: true, Figure: true, Dat: "ttl_coverage", run: typed(TTLCoverage), out: text(func(r *TTLCoverageResult) output {
		return output{header: line("# %d nodes, mean query hops %.2f (paper: 2.47)", r.Nodes, r.MeanHops),
			summary: line("ttl-coverage (%d nodes): %v, mean hops %.2f  [paper: 0.05%%, ..., 26.25%%, 82.95%%; 2.47 hops]", r.Nodes, r.Fractions, r.MeanHops)}
	})},
	{Name: "fig8", Sim: true, Figure: true, Dat: "fig8", run: typed(Fig8), out: text(func(r *Fig8Result) output {
		return output{header: line("# %d nodes; zipf mean replicas %.2f", r.Nodes, r.ZipfMean),
			summary: line("fig8 (%d nodes): zipf@TTL3=%.3f uniform39@TTL3=%.3f zipf-mean=%.2f  [paper: ~5%% vs ~62%%; mean ~1.5]",
				r.Nodes, r.ZipfAtTTL3, r.Uni39AtTTL3, r.ZipfMean)}
	})},
	{Name: "hybrid", Sim: true, Figure: true, run: typed(HybridVsDHT), out: text(func(r *HybridVsDHTResult) output {
		c := r.Comparison
		return summary("hybrid-vs-dht (%d nodes): hybrid cost %.1f vs dht %.1f at success %.2f/%.2f, fallback %.2f  [paper: hybrid worse than DHT]",
			r.Nodes, c.HybridMeanCost, c.DHTMeanCost, c.HybridSuccess, c.DHTSuccess, c.DHTFallbackFrac)
	})},
	{Name: "gia", Sim: true, Figure: true, run: typed(GiaComparison), out: text(func(r *GiaResult) output {
		return summary("gia (%d nodes): uniform-0.5%%=%.3f zipf=%.3f  [paper: Gia's uniform evaluation does not transfer]", r.Nodes, r.UniformSuccess, r.ZipfSuccess)
	})},
	// Synopsis is the one mode built on the crawled Gnutella population, so
	// the snapshot flags are its own.
	{Name: "synopsis", Sim: true, Figure: true, bind: func(fs *flag.FlagSet) runFunc {
		snap := cliflags.AddSnapshot(fs)
		return func(e *Env) (Result, error) {
			// Set only when given: qc-figures sets them on the Env itself.
			if snap.Save != "" || snap.Load != "" {
				e.SnapshotSave, e.SnapshotLoad = snap.Save, snap.Load
			}
			return SynopsisAblation(e)
		}
	}, out: text(func(r *SynopsisResult) output {
		return summary("synopsis (%d nodes): flood=%.3f static=%.3f adaptive=%.3f  [paper §VII: adaptive synopses improve success]",
			r.Nodes, r.FloodSuccess, r.StaticSuccess, r.AdaptiveSuccess)
	})},
	{Name: "qrp", Sim: true, Figure: true, run: typed(QRPEffect), out: text(func(r *QRPResult) output {
		return summary("qrp (%d peers): success %.3f→%.3f, messages −%.0f%%  [QRP saves cost but cannot fix the mismatch]",
			r.Peers, r.PlainSuccess, r.QRPSuccess, 100*r.MessageSavings)
	})},
	{Name: "churn", Sim: true, Figure: true, Dat: "churn", run: typed(ChurnComparison), out: text(func(r *ChurnResult) output {
		return output{header: line("# %d nodes, mean_online %.3f, uniform_success %.3f, zipf_success %.3f", r.Nodes, r.MeanOnline, r.UniformSuccess, r.ZipfSuccess),
			summary: line("churn (%d nodes, %.0f%% online): uniform=%.3f zipf=%.3f  [churn amplifies the Zipf penalty]", r.Nodes, 100*r.MeanOnline, r.UniformSuccess, r.ZipfSuccess)}
	})},
	{Name: "walk", Sim: true, Figure: true, run: typed(WalkVsFlood), out: text(func(r *WalkVsFloodResult) output {
		return output{header: line("# %d nodes", r.Nodes),
			summary: line("mechanisms (%d nodes): flood %.3f@%.0fmsg walk %.3f@%.0fmsg ring %.3f@%.0fmsg  [no mechanism fixes scarcity]",
				r.Nodes, r.FloodSuccess, r.FloodMessages, r.WalkSuccess, r.WalkMessages, r.RingSuccess, r.RingMessages)}
	})},
	{Name: "replication", Sim: true, Figure: true, run: typed(ReplicationStrategies), out: text(func(r *ReplicationResult) output {
		o := output{header: line("# %d nodes, replica budget %d", r.Nodes, r.Budget)}
		for _, row := range r.Rows {
			o.summary = append(o.summary, fmt.Sprintf("replication %s/%s: success %.3f  [allocations must follow query popularity]", row.Strategy, row.Basis, row.Success))
		}
		return o
	})},
	{Name: "churn-repair", Sim: true, bind: func(fs *flag.FlagSet) runFunc {
		d := DefaultChurnRepairConfig(0)
		interval, timeout := bindRepair(fs, d.Repair)
		polite := fs.Float64("polite", d.Timeline.PoliteFrac, "fraction of departures announced with a Bye in -mode churn-repair")
		return func(e *Env) (Result, error) {
			cfg := DefaultChurnRepairConfig(e.Seed)
			cfg.Repair.PingInterval, cfg.Repair.PingTimeout = *interval, *timeout
			cfg.Timeline.PoliteFrac = *polite
			if err := errors.Join(checkRepair(cfg.Repair), cliflags.CheckFrac("-polite", *polite)); err != nil {
				return nil, err
			}
			return ChurnRepairWith(e, cfg)
		}
	}, out: text(func(r *ChurnRepairResult) output {
		st := r.Repair.RepairStats
		return output{
			header: []string{fmt.Sprintf("# churn repair: %d peers, %d churn events, TTL %d", r.Peers, r.NoRepair.ChurnEvents, r.TTL),
				fmt.Sprintf("# static_success\t%.4f", r.StaticSuccess)},
			footer: []string{fmt.Sprintf("norepair_mean\t%.4f", r.NoRepairMean), fmt.Sprintf("repair_mean\t%.4f", r.RepairMean),
				fmt.Sprintf("recovered_frac\t%.3f", r.RecoveredFrac)},
			summary: line("churn-repair: detected %d failures, %d byes, repaired %d/%d dials (pings %d, lost %d)",
				st.FailuresDetected, st.ByesReceived, st.RepairSuccesses, st.RepairAttempts, st.PingsSent, st.PingsLost),
		}
	})},
	{Name: "recovery", Sim: true, bind: func(fs *flag.FlagSet) runFunc {
		d := DefaultRecoveryConfig(0)
		interval, timeout := bindRepair(fs, d.Repair)
		burstTime := fs.Int64("burst-time", d.BurstTime, "seconds into the run the correlated crash fires in -mode recovery")
		burstFrac := fs.Float64("burst-frac", d.BurstFrac, "fraction of the population crashing in -mode recovery")
		return func(e *Env) (Result, error) {
			cfg := DefaultRecoveryConfig(e.Seed)
			cfg.Repair.PingInterval, cfg.Repair.PingTimeout = *interval, *timeout
			cfg.BurstTime, cfg.BurstFrac = *burstTime, *burstFrac
			if err := errors.Join(checkRepair(cfg.Repair), cliflags.CheckPositiveSeconds("-burst-time", *burstTime),
				cliflags.CheckFrac("-burst-frac", *burstFrac)); err != nil {
				return nil, err
			}
			return RecoveryWith(e, cfg)
		}
	}, out: text(func(r *RecoveryResult) output {
		st := r.RepairStats
		return output{
			header: line("# recovery: %d peers, %.0f%% crash at t=%d, TTL %d", r.Peers, 100*r.BurstFrac, r.BurstTime, r.TTL),
			footer: []string{fmt.Sprintf("pre_burst_success\t%.4f", r.PreBurstSuccess), fmt.Sprintf("recovery_time_s\t%d", r.RecoveryTime),
				fmt.Sprintf("no_repair_recovery_time_s\t%d", r.NoRepairRecoveryTime)},
			summary: line("recovery: detected %d failures, repaired %d/%d dials, %d hints screened",
				st.FailuresDetected, st.RepairSuccesses, st.RepairAttempts, st.HostRejected),
		}
	})},
	{Name: "saturation", Sim: true, bind: func(fs *flag.FlagSet) runFunc {
		d := DefaultSaturationConfig(0).Capacity
		queueDepth := fs.Int("queue-depth", d.QueueDepth, "per-peer ingress queue bound in -mode saturation (messages)")
		serviceCost := fs.Int("service-cost", d.ServiceCostMs, "per-message service time in -mode saturation (simulated ms)")
		shedPolicy := fs.String("shed-policy", "all", "saturation arms: all, or one of unbounded|drop-tail|red|ttl (run against the unbounded baseline)")
		return func(e *Env) (Result, error) {
			if err := errors.Join(cliflags.CheckPositive("-queue-depth", *queueDepth), cliflags.CheckPositive("-service-cost", *serviceCost),
				cliflags.CheckOneOf("-shed-policy", *shedPolicy, "all", "unbounded", "drop-tail", "red", "ttl")); err != nil {
				return nil, err
			}
			cfg := DefaultSaturationConfig(e.Seed)
			cfg.Capacity.QueueDepth, cfg.Capacity.ServiceCostMs = *queueDepth, *serviceCost
			if *shedPolicy != "all" {
				cfg.Arms = []string{"unbounded"}
				if *shedPolicy != "unbounded" {
					cfg.Arms = append(cfg.Arms, *shedPolicy)
				}
			}
			return SaturationWith(e, cfg)
		}
	}, out: text(func(r *SaturationResult) output {
		o := output{header: line("# saturation: %d peers, queue depth %d, TTL %d", r.Peers, r.QueueDepth, r.TTL)}
		for _, arm := range r.Arms {
			if p := r.Peak(arm.Arm); p != nil {
				o.footer = append(o.footer, fmt.Sprintf("# peak\t%s\t%.4f\t%.1f", arm.Arm, p.FlashSuccess, p.MsgPerQuery))
			}
		}
		return o
	})},
	{Name: "shortcuts", Sim: true, run: typed(ShortcutsExperiment), out: func(Result) output { return output{} }},
	{Name: "faults", Sim: true, bind: func(fs *flag.FlagSet) runFunc {
		dead := fs.Float64("dead", 0, "fraction of peers offline in -mode faults (churn liveness mask)")
		var defRates []string
		for _, r := range DefaultFaultRates {
			defRates = append(defRates, strconv.FormatFloat(r, 'g', -1, 64))
		}
		rates := fs.String("fault-rates", strings.Join(defRates, ","), "comma-separated fault rates to sweep in -mode faults")
		attempts := fs.Int("attempts", crawler.DefaultConfig().MaxAttempts, "per-peer crawl attempt budget in -mode faults")
		return func(e *Env) (Result, error) {
			cfg := FaultSweepConfig{DeadFrac: *dead, MaxAttempts: *attempts}
			errs := []error{cliflags.CheckFrac("-dead", *dead), cliflags.CheckPositive("-attempts", *attempts)}
			for _, part := range strings.Split(*rates, ",") {
				r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
				if err != nil {
					err = fmt.Errorf("bad fault rate %q: %w", part, err)
				} else {
					err = cliflags.CheckFrac("-fault-rates", r)
				}
				errs = append(errs, err)
				cfg.Rates = append(cfg.Rates, r)
			}
			if err := errors.Join(errs...); err != nil {
				return nil, err
			}
			return FaultSweepWith(e, cfg)
		}
	}, out: text(func(r *FaultSweepResult) output {
		return output{header: line("# fault sweep: %d peers, dead_frac %.2f, %d attempts/peer", r.Peers, r.DeadFrac, r.MaxAttempts)}
	})},
	{Name: "query-centric", Sim: true, bind: func(fs *flag.FlagSet) runFunc {
		cfg := bindQueryCentric(fs)
		return func(e *Env) (Result, error) {
			if err := cfg.check(); err != nil {
				return nil, err
			}
			return QueryCentricWith(e, *cfg)
		}
	}, out: text(func(r *QueryCentricResult) output {
		return output{header: line("# query-centric: %d peers, %d objects, %d warmup + %d measured queries/arm", r.Peers, r.Objects, r.Warmup, r.Queries),
			summary: line("query-centric: adaptive_gain=%.2f over static flooding", r.AdaptiveGain)}
	})},
}

// bindRepair registers the keepalive flags churn-repair and recovery
// share, with rp's values as their defaults.
func bindRepair(fs *flag.FlagSet, rp gnet.RepairConfig) (interval *int64, timeout *int) {
	return fs.Int64("ping-interval", rp.PingInterval, "seconds between keepalive rounds in -mode churn-repair/recovery"),
		fs.Int("ping-timeout", rp.PingTimeout, "silent rounds before a neighbor is declared dead in -mode churn-repair/recovery")
}

// checkRepair checks the keepalive flags bindRepair registers.
func checkRepair(rp gnet.RepairConfig) error {
	return errors.Join(cliflags.CheckPositiveSeconds("-ping-interval", rp.PingInterval), cliflags.CheckPositive("-ping-timeout", rp.PingTimeout))
}

// bindQueryCentric registers the adaptation knobs of -mode query-centric,
// bound straight into a DefaultQueryCentricConfig value.
func bindQueryCentric(fs *flag.FlagSet) *QueryCentricConfig {
	cfg := DefaultQueryCentricConfig()
	fs.IntVar(&cfg.AdaptInterval, "adapt-interval", cfg.AdaptInterval, "queries between overlay adaptation rounds in -mode query-centric")
	fs.IntVar(&cfg.RewireBudget, "rewire-budget", cfg.RewireBudget, "max shortcut rewires per adaptation round in -mode query-centric (0 disables rewiring)")
	fs.IntVar(&cfg.ReplicateBudget, "replicate-budget", cfg.ReplicateBudget, "max replica installs per adaptation round in -mode query-centric (0 disables replication)")
	fs.StringVar((*string)(&cfg.ReplScheme), "repl-scheme", string(cfg.ReplScheme), "replica placement scheme in -mode query-centric (owner|path|random|sqrt)")
	return &cfg
}

// check rejects the knob values qc-sim refuses; QueryCentricWith itself
// reads a zero AdaptInterval or empty ReplScheme as the default.
func (c QueryCentricConfig) check() error {
	return errors.Join(cliflags.CheckPositive("-adapt-interval", c.AdaptInterval),
		cliflags.CheckNonNegative("-rewire-budget", c.RewireBudget),
		cliflags.CheckNonNegative("-replicate-budget", c.ReplicateBudget),
		cliflags.CheckOneOf("-repl-scheme", string(c.ReplScheme), adaptive.Schemes()...))
}
