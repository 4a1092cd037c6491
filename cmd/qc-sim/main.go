// Command qc-sim runs the search simulations of Section V: TTL coverage,
// the Figure 8 flood-success sweep, the hybrid-vs-DHT comparison, the Gia
// rebuttal and the adaptive-synopsis ablation.
//
// Usage:
//
//	qc-sim -mode fig8     -scale default -seed 42
//	qc-sim -mode coverage -scale default
//	qc-sim -mode hybrid
//	qc-sim -mode gia
//	qc-sim -mode synopsis
//	qc-sim -mode churn-repair -scale tiny
//	qc-sim -mode query-centric -scale tiny -repl-scheme sqrt
//	qc-sim -mode recovery -scale tiny -burst-frac 0.3
//	qc-sim -mode fig8 -metrics            # also write out/RUN_qc-sim_fig8_*.json
//	qc-sim -mode synopsis -snapshot-save out/net.qcsnap        # persist the substrate
//	qc-sim -mode synopsis -snapshot-load out/net.qcsnap        # memory-mapped restore
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
		mode         = flag.String("mode", "fig8", "fig8|coverage|hybrid|gia|dht|qrp|churn|churn-repair|recovery|saturation|walk|replication|shortcuts|query-centric|synopsis|faults")
		scaleName    = cliflags.AddScale(flag.CommandLine, "default")
		seed         = cliflags.AddSeed(flag.CommandLine)
		deadFrac     = flag.Float64("dead", 0, "fraction of peers offline in -mode faults (churn liveness mask)")
		workers      = cliflags.AddWorkers(flag.CommandLine)
		pingInterval = flag.Int64("ping-interval", 0, "seconds between keepalive rounds in -mode churn-repair/recovery (0 = default)")
		pingTimeout  = flag.Int("ping-timeout", 0, "silent rounds before a neighbor is declared dead in -mode churn-repair/recovery (0 = default)")
		burstTime    = flag.Int64("burst-time", 0, "seconds into the run the correlated crash fires in -mode recovery (0 = default)")
		burstFrac    = flag.Float64("burst-frac", -1, "fraction of the population crashing in -mode recovery (-1 = default 0.3)")
		politeFrac   = flag.Float64("polite", -1, "fraction of departures announced with a Bye in -mode churn-repair (-1 = default)")
		queueDepth   = flag.Int("queue-depth", 16, "per-peer ingress queue bound in -mode saturation (messages)")
		serviceCost  = flag.Int("service-cost", 4000, "per-message service time in -mode saturation (simulated ms)")
		shedPolicy   = flag.String("shed-policy", "all", "saturation arms: all, or one of unbounded|drop-tail|red|ttl (run against the unbounded baseline)")
		adaptFlags   = cliflags.AddAdaptive(flag.CommandLine)
		profiles     = cliflags.AddProfiles(flag.CommandLine)
		obsFlags     = cliflags.AddObs(flag.CommandLine, "qc-sim")
		snapFlags    = cliflags.AddSnapshot(flag.CommandLine)
	)
	flag.Parse()
	scale, err := qc.ParseScale(*scaleName)
	if err != nil {
		fail(err)
	}
	if err := cliflags.CheckWorkers(*workers); err != nil {
		fail(err)
	}
	if err := cliflags.CheckFrac("-dead", *deadFrac); err != nil {
		fail(err)
	}
	if *politeFrac != -1 {
		if err := cliflags.CheckFrac("-polite", *politeFrac); err != nil {
			fail(err)
		}
	}
	if err := cliflags.CheckPositive("-queue-depth", *queueDepth); err != nil {
		fail(err)
	}
	if err := cliflags.CheckPositive("-service-cost", *serviceCost); err != nil {
		fail(err)
	}
	if err := cliflags.CheckOneOf("-shed-policy", *shedPolicy,
		"all", "unbounded", "drop-tail", "red", "ttl"); err != nil {
		fail(err)
	}
	if err := adaptFlags.Check(); err != nil {
		fail(err)
	}
	// Snapshots persist the calibrated Gnutella population built by
	// Env.ObjectTrace; the overlay-simulation modes construct their own
	// (differently seeded) networks and would silently ignore the flags.
	if (snapFlags.Save != "" || snapFlags.Load != "") && *mode != "synopsis" {
		fail(fmt.Errorf("-snapshot-save/-snapshot-load only apply to modes built on the crawled Gnutella population (synopsis); -mode %s builds its own network", *mode))
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
	stopPhase := obsFlags.Registry().StartPhase("sim/" + *mode)
	switch *mode {
	case "coverage":
		c, err := qc.TTLCoverage(env)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# %d nodes, mean query hops %.2f (paper: 2.47)\n", c.Nodes, c.MeanHops)
		writeTable(c)
	case "fig8":
		f8, err := qc.Fig8(env)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# %d nodes; zipf mean replicas %.2f\n", f8.Nodes, f8.ZipfMean)
		writeTable(f8)
		fmt.Fprintf(os.Stderr, "fig8: zipf@TTL3=%.3f vs uniform-39@TTL3=%.3f\n",
			f8.ZipfAtTTL3, f8.Uni39AtTTL3)
	case "hybrid":
		h, err := qc.HybridVsDHT(env)
		if err != nil {
			fail(err)
		}
		writeTable(h)
	case "gia":
		g, err := qc.GiaComparison(env)
		if err != nil {
			fail(err)
		}
		writeTable(g)
	case "qrp":
		q, err := qc.QRPEffect(env)
		if err != nil {
			fail(err)
		}
		writeTable(q)
	case "churn":
		c, err := qc.ChurnComparison(env)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# %d nodes, mean_online %.3f, uniform_success %.3f, zipf_success %.3f\n",
			c.Nodes, c.MeanOnline, c.UniformSuccess, c.ZipfSuccess)
		writeTable(c)
	case "churn-repair":
		cfg := qc.DefaultChurnRepairConfig(*seed)
		if *pingInterval > 0 {
			cfg.Repair.PingInterval = *pingInterval
		}
		if *pingTimeout > 0 {
			cfg.Repair.PingTimeout = *pingTimeout
		}
		if *politeFrac >= 0 {
			cfg.Timeline.PoliteFrac = *politeFrac
		}
		c, err := qc.ChurnRepairWith(env, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# churn repair: %d peers, %d churn events, TTL %d\n", c.Peers, c.Events, c.TTL)
		fmt.Printf("# static_success\t%.4f\n", c.StaticSuccess)
		writeTable(c)
		fmt.Printf("norepair_mean\t%.4f\nrepair_mean\t%.4f\nrecovered_frac\t%.3f\n",
			c.NoRepairMean, c.RepairMean, c.RecoveredFrac)
		st := c.RepairStats
		fmt.Fprintf(os.Stderr,
			"churn-repair: detected %d failures, %d byes, repaired %d/%d dials (pings %d, lost %d)\n",
			st.FailuresDetected, st.ByesReceived, st.RepairSuccesses, st.RepairAttempts,
			st.PingsSent, st.PingsLost)
	case "recovery":
		cfg := qc.DefaultRecoveryConfig(*seed)
		if *pingInterval > 0 {
			cfg.Repair.PingInterval = *pingInterval
		}
		if *pingTimeout > 0 {
			cfg.Repair.PingTimeout = *pingTimeout
		}
		if *burstTime > 0 {
			cfg.BurstTime = *burstTime
		}
		if *burstFrac != -1 {
			if err := cliflags.CheckFrac("-burst-frac", *burstFrac); err != nil {
				fail(err)
			}
			cfg.BurstFrac = *burstFrac
		}
		env.Windows = obsFlags.Windows()
		r, err := qc.RecoveryWith(env, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# recovery: %d peers, %.0f%% crash at t=%d, TTL %d\n",
			r.Peers, 100*r.BurstFrac, r.BurstTime, r.TTL)
		writeTable(r)
		fmt.Printf("pre_burst_success\t%.4f\nrecovery_time_s\t%d\nno_repair_recovery_time_s\t%d\n",
			r.PreBurstSuccess, r.RecoveryTime, r.NoRepairRecoveryTime)
		st := r.RepairStats
		fmt.Fprintf(os.Stderr,
			"recovery: detected %d failures, repaired %d/%d dials, %d hints screened\n",
			st.FailuresDetected, st.RepairSuccesses, st.RepairAttempts, st.HostRejected)
	case "saturation":
		cfg := qc.DefaultSaturationConfig(*seed)
		cfg.Capacity.QueueDepth = *queueDepth
		cfg.Capacity.ServiceCostMs = *serviceCost
		if *shedPolicy != "all" {
			cfg.Arms = []string{"unbounded"}
			if *shedPolicy != "unbounded" {
				cfg.Arms = append(cfg.Arms, *shedPolicy)
			}
		}
		env.Windows = obsFlags.Windows()
		r, err := qc.SaturationWith(env, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# saturation: %d peers, queue depth %d, TTL %d\n",
			r.Peers, r.QueueDepth, r.TTL)
		writeTable(r)
		for _, arm := range r.Arms {
			if p := r.Peak(arm.Arm); p != nil {
				fmt.Printf("# peak\t%s\t%.4f\t%.1f\n", arm.Arm, p.FlashSuccess, p.MsgPerQuery)
			}
		}
	case "walk":
		w, err := qc.WalkVsFlood(env)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# %d nodes\n", w.Nodes)
		writeTable(w)
	case "replication":
		r, err := qc.ReplicationStrategies(env)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# %d nodes, replica budget %d\n", r.Nodes, r.Budget)
		writeTable(r)
	case "shortcuts":
		s, err := qc.ShortcutsExperiment(env)
		if err != nil {
			fail(err)
		}
		writeTable(s)
	case "dht":
		d, err := qc.DHTRouting(env)
		if err != nil {
			fail(err)
		}
		writeTable(d)
	case "faults":
		f, err := qc.FaultSweepWith(env, qc.FaultSweepConfig{DeadFrac: *deadFrac})
		if err != nil {
			fail(err)
		}
		fmt.Printf("# fault sweep: %d peers, dead_frac %.2f, %d attempts/peer\n",
			f.Peers, f.DeadFrac, f.MaxAttempts)
		writeTable(f)
	case "query-centric":
		cfg := qc.QueryCentricConfig{
			AdaptInterval:   adaptFlags.Interval,
			RewireBudget:    adaptFlags.RewireBudget,
			ReplicateBudget: adaptFlags.ReplicateBudget,
			ReplScheme:      qc.ReplScheme(adaptFlags.Scheme),
		}
		r, err := qc.QueryCentricWith(env, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# query-centric: %d peers, %d objects, %d warmup + %d measured queries/arm\n",
			r.Peers, r.Objects, r.Warmup, r.Queries)
		writeTable(r)
		fmt.Fprintf(os.Stderr, "query-centric: adaptive_gain=%.2f over static flooding\n", r.AdaptiveGain)
	case "synopsis":
		s, err := qc.SynopsisAblation(env)
		if err != nil {
			fail(err)
		}
		writeTable(s)
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	stopPhase()
	if path, err := obsFlags.WriteManifest(*mode, scale.String(), *seed, *workers); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-sim: wrote %s\n", path)
	}
}

func writeTable(r qc.Result) {
	if err := qc.WriteResultTable(os.Stdout, r); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-sim:", err)
	os.Exit(1)
}
