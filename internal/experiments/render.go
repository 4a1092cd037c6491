package experiments

import (
	"fmt"
	"io"
	"strings"

	"querycentric/internal/analysis"
)

// Result is the common rendering interface every experiment result
// implements: the tab-separated table qc-sim and qc-figures emit. Table()[0] is the header
// row, written with a leading "# " by WriteTable; subsequent rows are the
// data. Tables are fully deterministic: map-backed results iterate fixed
// orderings, never Go map order.
type Result interface {
	Table() [][]string
}

// WriteTable renders a Result as a commented-header TSV table.
func WriteTable(w io.Writer, r Result) error {
	rows := r.Table()
	if len(rows) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "# "+strings.Join(rows[0], "\t")); err != nil {
		return err
	}
	for _, row := range rows[1:] {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// kv builds a two-column metric/value table from alternating pairs.
func kv(pairs ...string) [][]string {
	rows := [][]string{{"metric", "value"}}
	for i := 0; i+1 < len(pairs); i += 2 {
		rows = append(rows, []string{pairs[i], pairs[i+1]})
	}
	return rows
}

// Table renders the rank/count distribution.
func (r *DistResult) Table() [][]string {
	rows := [][]string{{"rank", "count"}}
	for _, p := range r.RankFreq {
		rows = append(rows, []string{fmt.Sprintf("%d", p.Rank), fmt.Sprintf("%d", p.Count)})
	}
	return rows
}

// fig4Annotations fixes the rendering order of the four annotation kinds.
var fig4Annotations = []analysis.Annotation{
	analysis.AnnotationSong, analysis.AnnotationGenre,
	analysis.AnnotationAlbum, analysis.AnnotationArtist,
}

// Table renders all four annotation distributions in fixed order.
func (r *Fig4Result) Table() [][]string {
	rows := [][]string{{"annotation", "rank", "count"}}
	for _, a := range fig4Annotations {
		rep := r.Reports[a]
		if rep == nil {
			continue
		}
		for _, p := range rep.RankFreq() {
			rows = append(rows, []string{a.String(),
				fmt.Sprintf("%d", p.Rank), fmt.Sprintf("%d", p.Count)})
		}
	}
	return rows
}

// Table renders the per-interval transient counts, iterating the fixed
// Fig5Intervals order (not the backing map).
func (r *Fig5Result) Table() [][]string {
	rows := [][]string{{"interval_s", "start", "transient_count"}}
	for _, iv := range Fig5Intervals {
		for _, p := range r.PointsByInterval[iv] {
			rows = append(rows, []string{fmt.Sprintf("%d", iv),
				fmt.Sprintf("%d", p.Start), fmt.Sprintf("%d", p.Count)})
		}
	}
	return rows
}

// Table renders both sweeps' means per evaluation interval.
func (r *intervalSweepResult) Table() [][]string {
	rows := [][]string{{"interval_s", "stability_mean", "mismatch_mean"}}
	for i, s := range r.Stability {
		rows = append(rows, []string{fmt.Sprintf("%d", s.Interval),
			fmt.Sprintf("%.4f", s.MeanValue), fmt.Sprintf("%.4f", r.Mismatch[i].MeanValue)})
	}
	return rows
}

// Table renders the stability series.
func (r *Fig6Result) Table() [][]string {
	rows := [][]string{{"start", "jaccard"}}
	for _, p := range r.Series {
		rows = append(rows, []string{fmt.Sprintf("%d", p.Start), fmt.Sprintf("%.4f", p.Value)})
	}
	return rows
}

// Table renders the popular-terms-vs-F* series (the figure's line).
func (r *Fig7Result) Table() [][]string {
	rows := [][]string{{"start", "jaccard_popular"}}
	for _, p := range r.PopularSeries {
		rows = append(rows, []string{fmt.Sprintf("%d", p.Start), fmt.Sprintf("%.4f", p.Value)})
	}
	return rows
}

// Table renders success-vs-TTL, one column per placement curve.
func (r *Fig8Result) Table() [][]string {
	header := []string{"ttl"}
	for _, c := range r.Curves {
		header = append(header, c.Label)
	}
	rows := [][]string{header}
	if len(r.Curves) == 0 {
		return rows
	}
	for ttl := 1; ttl <= len(r.Curves[0].Success); ttl++ {
		row := []string{fmt.Sprintf("%d", ttl)}
		for _, c := range r.Curves {
			row = append(row, fmt.Sprintf("%.4f", c.Success[ttl-1]))
		}
		rows = append(rows, row)
	}
	return rows
}

// Table renders the fraction of the overlay reached per TTL.
func (r *TTLCoverageResult) Table() [][]string {
	rows := [][]string{{"ttl", "fraction_reached"}}
	for i, f := range r.Fractions {
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), fmt.Sprintf("%.5f", f)})
	}
	return rows
}

// Table renders the comparison headline metrics.
func (r *HybridVsDHTResult) Table() [][]string {
	c := r.Comparison
	return kv(
		"nodes", fmt.Sprintf("%d", r.Nodes),
		"hybrid_success", fmt.Sprintf("%.3f", c.HybridSuccess),
		"hybrid_mean_cost", fmt.Sprintf("%.1f", c.HybridMeanCost),
		"dht_success", fmt.Sprintf("%.3f", c.DHTSuccess),
		"dht_mean_cost", fmt.Sprintf("%.1f", c.DHTMeanCost),
		"dht_fallback_frac", fmt.Sprintf("%.3f", c.DHTFallbackFrac),
	)
}

// Table renders the Gia comparison.
func (r *GiaResult) Table() [][]string {
	return kv(
		"nodes", fmt.Sprintf("%d", r.Nodes),
		"uniform_0.5pct_success", fmt.Sprintf("%.3f", r.UniformSuccess),
		"zipf_success", fmt.Sprintf("%.3f", r.ZipfSuccess),
	)
}

// Table renders the QRP comparison.
func (r *QRPResult) Table() [][]string {
	return kv(
		"peers", fmt.Sprintf("%d", r.Peers),
		"queries", fmt.Sprintf("%d", r.Queries),
		"plain_success", fmt.Sprintf("%.3f", r.PlainSuccess),
		"plain_messages", fmt.Sprintf("%d", r.PlainMessages),
		"qrp_success", fmt.Sprintf("%.3f", r.QRPSuccess),
		"qrp_messages", fmt.Sprintf("%d", r.QRPMessages),
		"message_savings", fmt.Sprintf("%.1f%%", 100*r.MessageSavings),
	)
}

// Table renders the churn time series (uniform vs Zipf placement).
func (r *ChurnResult) Table() [][]string {
	rows := [][]string{{"time", "online_frac", "uniform_success", "zipf_success"}}
	for i := range r.UniformSeries {
		u, z := r.UniformSeries[i], r.ZipfSeries[i]
		rows = append(rows, []string{fmt.Sprintf("%d", u.Time),
			fmt.Sprintf("%.3f", u.OnlineFrac),
			fmt.Sprintf("%.3f", u.SuccessRate),
			fmt.Sprintf("%.3f", z.SuccessRate)})
	}
	return rows
}

// Table renders the repair-vs-no-repair time series.
func (r *ChurnRepairResult) Table() [][]string {
	rows := [][]string{{"time", "online", "deg_norepair", "succ_norepair", "deg_repair", "succ_repair"}}
	for i, nr := range r.NoRepair.Windows {
		rp := r.Repair.Windows[i]
		rows = append(rows, []string{fmt.Sprintf("%d", nr.End),
			fmt.Sprintf("%.3f", nr.OnlineFrac),
			fmt.Sprintf("%.2f", nr.MeanDegree), fmt.Sprintf("%.4f", nr.Success),
			fmt.Sprintf("%.2f", rp.MeanDegree), fmt.Sprintf("%.4f", rp.Success)})
	}
	return rows
}

// Table renders per-mechanism success and cost.
func (r *WalkVsFloodResult) Table() [][]string {
	row := func(name string, success, msgs float64) []string {
		return []string{name, fmt.Sprintf("%.3f", success), fmt.Sprintf("%.0f", msgs)}
	}
	return [][]string{
		{"mechanism", "success", "messages"},
		row("flood", r.FloodSuccess, r.FloodMessages),
		row("walk", r.WalkSuccess, r.WalkMessages),
		row("ring", r.RingSuccess, r.RingMessages),
	}
}

// Table renders per-strategy success.
func (r *ReplicationResult) Table() [][]string {
	rows := [][]string{{"strategy", "basis", "success"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Strategy, row.Basis, fmt.Sprintf("%.3f", row.Success)})
	}
	return rows
}

// Table renders the shortcut hit rates and costs.
func (r *ShortcutsResult) Table() [][]string {
	return kv(
		"nodes", fmt.Sprintf("%d", r.Nodes),
		"warmup_shortcut_hits", fmt.Sprintf("%.3f", r.WarmupHits),
		"steady_shortcut_hits", fmt.Sprintf("%.3f", r.SteadyHits),
		"shifted_shortcut_hits", fmt.Sprintf("%.3f", r.ShiftedHits),
		"steady_mean_messages", fmt.Sprintf("%.1f", r.SteadyMessages),
		"flood_mean_messages", fmt.Sprintf("%.1f", r.FloodMessages),
	)
}

// Table renders crawl coverage and flood success per fault rate.
func (r *FaultSweepResult) Table() [][]string {
	rows := [][]string{{"rate", "coverage", "partial", "failed", "record_frac", "retried", "flood_success"}}
	for _, p := range r.Points {
		rows = append(rows, []string{fmt.Sprintf("%.3f", p.Rate),
			fmt.Sprintf("%.4f", p.Coverage), fmt.Sprintf("%.4f", p.PartialFrac),
			fmt.Sprintf("%.4f", p.FailedFrac), fmt.Sprintf("%.4f", p.RecordFrac),
			fmt.Sprintf("%d", p.Retried), fmt.Sprintf("%.4f", p.FloodSuccess)})
	}
	return rows
}

// Table renders the three-mechanism comparison.
func (r *SynopsisResult) Table() [][]string {
	return kv(
		"nodes", fmt.Sprintf("%d", r.Nodes),
		"rounds", fmt.Sprintf("%d", r.Rounds),
		"queries_per_round", fmt.Sprintf("%d", r.QueriesPerRound),
		"flood_success", fmt.Sprintf("%.3f", r.FloodSuccess),
		"static_synopsis_success", fmt.Sprintf("%.3f", r.StaticSuccess),
		"adaptive_synopsis_success", fmt.Sprintf("%.3f", r.AdaptiveSuccess),
	)
}

// Table renders the two recovery curves side by side, then the headline
// recovery statistics.
func (r *RecoveryResult) Table() [][]string {
	rows := [][]string{{"window_end", "succ_repair", "succ_norepair",
		"online", "parts_repair", "parts_norepair", "repair_latency_s"}}
	for i := range r.Repair {
		rp := r.Repair[i]
		row := []string{fmt.Sprintf("%d", rp.End),
			fmt.Sprintf("%.4f", rp.Success), "",
			fmt.Sprintf("%.3f", rp.OnlineFrac),
			fmt.Sprintf("%d", rp.Partitions), "",
			fmt.Sprintf("%.0f", rp.RepairLatency)}
		if i < len(r.NoRepair) {
			nr := r.NoRepair[i]
			row[2] = fmt.Sprintf("%.4f", nr.Success)
			row[5] = fmt.Sprintf("%d", nr.Partitions)
		}
		rows = append(rows, row)
	}
	rows = append(rows,
		[]string{"# pre_burst_success", fmt.Sprintf("%.4f", r.PreBurstSuccess), "", "", "", "", ""},
		[]string{"# recovery_time_s", fmt.Sprintf("%d", r.RecoveryTime),
			fmt.Sprintf("%d", r.NoRepairRecoveryTime), "", "", "", ""},
		[]string{"# final_success", fmt.Sprintf("%.4f", r.RepairFinal),
			fmt.Sprintf("%.4f", r.NoRepairFinal), "", "", "", ""},
	)
	return rows
}

// Table renders the rare-object statistics.
func (r *RareObjectResult) Table() [][]string {
	return kv(
		"frac_at_least_20_peers", fmt.Sprintf("%.4f", r.FracAtLeast20),
		"mean_replicas", fmt.Sprintf("%.2f", r.MeanReplicas),
	)
}
