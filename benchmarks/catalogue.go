package main

// The metric catalogue. BENCHMARK.json at the repository root carries the
// same names, units, directions and bounds in the driver's schema (the
// self-test fails when the two drift); what lives only here is the part
// that schema has no room for: which layer a per-layer metric belongs to
// and which end-to-end metric, on which workload, it is expected to move.

// workloadDef names one frozen workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

// metricDef is one catalogued metric. Count marks values that are a pure
// function of (code, seed) — simulated counts, never host time — which the
// self-test requires to repeat exactly.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the baseline median
	Layer  string  // per-layer only: module name
	Moves  string  // per-layer only: "<end-to-end metric>@<workload>[,...]"
	Count  bool
}

var workloads = []workloadDef{
	{"flood_miss", "paper's common case: querygen criteria at the measured query/file mismatch, each with a term no file has, miss everywhere, so per-edge work (frontier, gmsg, filter probe) is the whole cost"},
	{"flood_hit", "same floods over real file-name terms from a stable popular core: index decode, posting intersection and hit assembly dominate; a cache or batch gains here only"},
	{"overload_scenario", "every gate the plain floods skip is live at once: QRP, 5% loss, capacity shedding and breakers, churn, a crash burst, repair, event queue, windowed metrics"},
	{"five_arm", "reads beside writes: tiny floods interleaved with path capture, edge swaps, copy-on-write AddFile and index invalidation; per-flood fixed cost and mutation cost dominate"},
	{"graph_fig8", "Figure 8 through overlay/search/parallel only: bypasses gnet, gmsg and dict, so any wire-level flood change must leave it unchanged"},
	{"snapshot_cold", "snapshot load to first flood: all time is parse/verify, dictionary and filter rebuilds and page faults; steady-state flood cost is irrelevant"},
}

// Bounds follow the measured spreads in README.md (ten seeds per workload).
// The timing bounds are the widest the driver accepts: on this box the same
// binary reads 5-12% differently from one process to the next. The heap
// bound is several times the widest spread seen (0.7%).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_after_setup_mib", Unit: "MiB", Better: "lower", Bound: 0.05},
}

const (
	gnetSetup = "setup_s@flood_miss,flood_hit,overload_scenario"
	floodQPS  = "queries_per_s@flood_miss,flood_hit"
)

var perLayer = []metricDef{
	// Set-up layers.
	{Name: "catalog.build_s", Unit: "s", Better: "lower", Layer: "catalog", Moves: gnetSetup},
	{Name: "gnet.network_build_s", Unit: "s", Better: "lower", Layer: "gnet", Moves: gnetSetup},
	{Name: "gnet.index_build_s", Unit: "s", Better: "lower", Layer: "gnet", Moves: gnetSetup},
	{Name: "gnet.qrp_build_s", Unit: "s", Better: "lower", Layer: "gnet", Moves: "setup_s@overload_scenario"},
	{Name: "querygen.generate_s", Unit: "s", Better: "lower", Layer: "querygen", Moves: "setup_s@flood_miss"},
	{Name: "dict.terms", Unit: "count", Better: "lower", Layer: "dict", Moves: "heap_after_setup_mib@flood_miss,flood_hit,overload_scenario", Count: true},
	{Name: "dict.heap_mib", Unit: "MiB", Better: "lower", Layer: "dict", Moves: "heap_after_setup_mib@flood_miss,flood_hit,overload_scenario", Count: true},
	{Name: "gnet.index_heap_mib", Unit: "MiB", Better: "lower", Layer: "gnet", Moves: "heap_after_setup_mib@flood_miss,flood_hit,overload_scenario", Count: true},
	{Name: "gnet.postings", Unit: "count", Better: "lower", Layer: "gnet", Moves: "heap_after_setup_mib@flood_miss,flood_hit,overload_scenario", Count: true},
	{Name: "snapshot.build_sharded_s", Unit: "s", Better: "lower", Layer: "snapshot", Moves: "setup_s@snapshot_cold"},
	{Name: "snapshot.file_mib", Unit: "MiB", Better: "lower", Layer: "snapshot", Moves: "query_p50_us@snapshot_cold", Count: true},
	{Name: "overlay.graph_build_s", Unit: "s", Better: "lower", Layer: "overlay", Moves: "queries_per_s@graph_fig8"},
	{Name: "search.placement_s", Unit: "s", Better: "lower", Layer: "search", Moves: "queries_per_s@graph_fig8"},

	// Flood layers.
	{Name: "gnet.flood.self_us", Unit: "us", Better: "lower", Layer: "gnet", Moves: floodQPS + ";query_p50_us@flood_miss,flood_hit"},
	{Name: "gnet.flood.p99_us", Unit: "us", Better: "lower", Layer: "gnet", Moves: floodQPS},
	{Name: "gnet.flood.ns_per_msg", Unit: "ns", Better: "lower", Layer: "gnet", Moves: "queries_per_s@flood_miss,overload_scenario"},
	{Name: "gnet.flood.msgs_per_query", Unit: "count", Better: "lower", Layer: "gnet", Moves: floodQPS, Count: true},
	{Name: "gnet.flood.reached_per_query", Unit: "count", Better: "higher", Layer: "gnet", Moves: floodQPS, Count: true},
	{Name: "gnet.flood.hits_per_query", Unit: "count", Better: "higher", Layer: "gnet", Moves: "queries_per_s@flood_hit", Count: true},
	{Name: "gnet.flood.results_per_query", Unit: "count", Better: "higher", Layer: "gnet", Moves: "queries_per_s@flood_hit", Count: true},
	{Name: "gnet.flood.allocs_per_query", Unit: "count", Better: "lower", Layer: "gnet", Moves: "gnet.flood.p99_us@flood_miss,flood_hit;" + floodQPS},
	{Name: "gnet.flood.bytes_per_query", Unit: "B", Better: "lower", Layer: "gnet", Moves: "gnet.flood.p99_us@flood_miss,flood_hit;" + floodQPS},
	{Name: "gnet.tokenize.ns_per_query", Unit: "ns", Better: "lower", Layer: "gnet", Moves: "queries_per_s@five_arm"},
	{Name: "dict.lookup_ns", Unit: "ns", Better: "lower", Layer: "dict", Moves: "queries_per_s@five_arm"},
	{Name: "dict.known_term_frac", Unit: "ratio", Better: "higher", Layer: "dict", Moves: "queries_per_s@flood_miss,flood_hit", Count: true},
	{Name: "gnet.match.ns_per_probe", Unit: "ns", Better: "lower", Layer: "gnet", Moves: "queries_per_s@flood_hit"},
	{Name: "gnet.match.hit_frac", Unit: "ratio", Better: "higher", Layer: "gnet", Moves: "queries_per_s@flood_hit", Count: true},
	{Name: "gmsg.encode_ns", Unit: "ns", Better: "lower", Layer: "gmsg", Moves: "queries_per_s@flood_miss,overload_scenario"},
	{Name: "gmsg.decode_ns", Unit: "ns", Better: "lower", Layer: "gmsg", Moves: "queries_per_s@flood_miss,overload_scenario"},
	{Name: "gnet.flood.qrp_delta_us", Unit: "us", Better: "lower", Layer: "gnet", Moves: "queries_per_s@overload_scenario"},
	{Name: "gnet.flood.loss_delta_us", Unit: "us", Better: "lower", Layer: "faults", Moves: "queries_per_s@overload_scenario"},
	{Name: "gnet.flood.capacity_delta_us", Unit: "us", Better: "lower", Layer: "capacity", Moves: "queries_per_s@overload_scenario"},
	{Name: "gnet.flood.pathcapture_delta_us", Unit: "us", Better: "lower", Layer: "gnet", Moves: "queries_per_s@five_arm"},
	{Name: "gnet.flood.obs_delta_us", Unit: "us", Better: "lower", Layer: "obs", Moves: "trace.overhead_frac@overload_scenario"},
	{Name: "model.msgs_residual_frac", Unit: "ratio", Better: "lower", Layer: "gnet", Moves: "gnet.flood.msgs_per_query@flood_miss,flood_hit", Count: true},

	// Scenario layers.
	{Name: "events.run_s", Unit: "s", Better: "lower", Layer: "events", Moves: "queries_per_s@overload_scenario"},
	{Name: "events.dispatched", Unit: "count", Better: "lower", Layer: "events", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "events.queue_ns_per_event", Unit: "ns", Better: "lower", Layer: "events", Moves: "queries_per_s@overload_scenario"},
	{Name: "events.queries", Unit: "count", Better: "higher", Layer: "events", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "events.msgs_per_query", Unit: "count", Better: "lower", Layer: "events", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "events.success_mean", Unit: "ratio", Better: "higher", Layer: "events", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "capacity.enqueued", Unit: "count", Better: "higher", Layer: "capacity", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "capacity.shed_frac", Unit: "ratio", Better: "lower", Layer: "capacity", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "capacity.breaker_opens", Unit: "count", Better: "lower", Layer: "capacity", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "capacity.max_depth", Unit: "count", Better: "lower", Layer: "capacity", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "capacity.admit_ns", Unit: "ns", Better: "lower", Layer: "capacity", Moves: "queries_per_s@overload_scenario"},
	{Name: "faults.loss_at_ns", Unit: "ns", Better: "lower", Layer: "faults", Moves: "queries_per_s@overload_scenario"},
	{Name: "gnet.maint.pings", Unit: "count", Better: "lower", Layer: "gnet", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "gnet.maint.repairs", Unit: "count", Better: "higher", Layer: "gnet", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "gnet.hostcache.rejected", Unit: "count", Better: "lower", Layer: "gnet", Moves: "queries_per_s@overload_scenario", Count: true},
	{Name: "churn.timeline_events", Unit: "count", Better: "lower", Layer: "churn", Moves: "queries_per_s@overload_scenario", Count: true},

	// Adaptive layers.
	{Name: "adaptive.static_run_s", Unit: "s", Better: "lower", Layer: "adaptive", Moves: "queries_per_s@five_arm"},
	{Name: "adaptive.qrp_run_s", Unit: "s", Better: "lower", Layer: "adaptive", Moves: "queries_per_s@five_arm"},
	{Name: "shortcuts.run_s", Unit: "s", Better: "lower", Layer: "shortcuts", Moves: "queries_per_s@five_arm"},
	{Name: "adaptive.adapt_run_s", Unit: "s", Better: "lower", Layer: "adaptive", Moves: "queries_per_s@five_arm"},
	{Name: "chord.run_s", Unit: "s", Better: "lower", Layer: "chord", Moves: "queries_per_s@five_arm"},
	{Name: "adaptive.arms_residual_frac", Unit: "ratio", Better: "lower", Layer: "strategy", Moves: "queries_per_s@five_arm"},
	{Name: "adaptive.batch_us_per_query", Unit: "us", Better: "lower", Layer: "adaptive", Moves: "queries_per_s@five_arm"},
	{Name: "adaptive.round_ms", Unit: "ms", Better: "lower", Layer: "adaptive", Moves: "queries_per_s@five_arm"},
	{Name: "adaptive.rewires", Unit: "count", Better: "higher", Layer: "adaptive", Moves: "queries_per_s@five_arm", Count: true},
	{Name: "adaptive.replicas", Unit: "count", Better: "higher", Layer: "adaptive", Moves: "queries_per_s@five_arm", Count: true},
	{Name: "adaptive.success", Unit: "ratio", Better: "higher", Layer: "adaptive", Moves: "queries_per_s@five_arm", Count: true},
	{Name: "adaptive.msgs_per_query", Unit: "count", Better: "lower", Layer: "adaptive", Moves: "queries_per_s@five_arm", Count: true},
	{Name: "gnet.addfile_us", Unit: "us", Better: "lower", Layer: "gnet", Moves: "queries_per_s@five_arm"},
	{Name: "gnet.rewire_us", Unit: "us", Better: "lower", Layer: "gnet", Moves: "queries_per_s@five_arm"},
	{Name: "gnet.netbuild_s", Unit: "s", Better: "lower", Layer: "gnet", Moves: "queries_per_s@five_arm"},

	// Graph layers.
	{Name: "search.trials_per_s_ttl1", Unit: "1/s", Better: "higher", Layer: "search", Moves: "queries_per_s@graph_fig8"},
	{Name: "search.trials_per_s_ttl3", Unit: "1/s", Better: "higher", Layer: "search", Moves: "queries_per_s@graph_fig8"},
	{Name: "search.trials_per_s_ttl5", Unit: "1/s", Better: "higher", Layer: "search", Moves: "queries_per_s@graph_fig8"},
	{Name: "overlay.coverage_ns_per_node", Unit: "ns", Better: "lower", Layer: "overlay", Moves: "queries_per_s@graph_fig8"},
	{Name: "parallel.speedup_vs_1", Unit: "ratio", Better: "higher", Layer: "parallel", Moves: "queries_per_s@graph_fig8,five_arm,overload_scenario"},

	// Snapshot layers.
	{Name: "snapshot.load_mapped_ms", Unit: "ms", Better: "lower", Layer: "snapshot", Moves: "query_p50_us@snapshot_cold"},
	{Name: "snapshot.load_copy_ms", Unit: "ms", Better: "lower", Layer: "snapshot", Moves: "query_p50_us@snapshot_cold"},
	{Name: "snapshot.first_flood_us", Unit: "us", Better: "lower", Layer: "snapshot", Moves: "query_p50_us@snapshot_cold"},
	{Name: "snapshot.steady_flood_us", Unit: "us", Better: "lower", Layer: "snapshot", Moves: "query_p50_us@snapshot_cold"},
	{Name: "snapshot.close_ms", Unit: "ms", Better: "lower", Layer: "snapshot", Moves: "queries_per_s@snapshot_cold"},
	{Name: "snapshot.save_s", Unit: "s", Better: "lower", Layer: "snapshot", Moves: "setup_s@snapshot_cold"},

	// Cross-cutting.
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "benchmarks", Moves: "queries_per_s@all"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "benchmarks", Moves: "trace.overhead_frac@all"},
}
