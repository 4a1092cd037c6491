package gnet

import (
	"querycentric/internal/obs"
)

// netObs holds the network's observability handles, registered once at
// Instrument time so the flood hot path pays one nil check plus atomic
// adds at flood end — never a registry lookup or an allocation.
//
// Determinism: every counter here accumulates per-flood totals that are
// pure functions of (topology, query, trial stream), so the sums are
// schedule-invariant at any worker count. The hop histograms observe
// per-hit values that are equally schedule-free.
type netObs struct {
	reg *obs.Registry

	floods        *obs.Counter // gnet_floods_total
	messages      *obs.Counter // gnet_flood_messages_total
	reached       *obs.Counter // gnet_flood_peers_reached_total
	results       *obs.Counter // gnet_flood_results_total
	lossDrops     *obs.Counter // gnet_flood_loss_drops_total
	deadDrops     *obs.Counter // gnet_flood_dead_drops_total
	qrpSuppressed *obs.Counter // gnet_flood_qrp_suppressed_total
	probes        *obs.Counter // gnet_flood_probes_total: peers whose posting index a flood read
	dense         *obs.Counter // gnet_flood_dense_total: floods read through offset columns
	postings      *obs.Counter // gnet_flood_postings_total: postings a flood's intersections decoded

	hitHops     *obs.Histogram // gnet_flood_hit_hops
	msgPerFlood *obs.Histogram // gnet_flood_messages

	traces *obs.FloodTraces
}

// Instrument attaches an observability registry (and, optionally, a
// bounded flood-trace recorder) to the network. Floods, maintenance and
// host caches then publish their counters; a nil registry detaches the
// plane (the default, zero-cost state). Call before floods run — the
// attachment itself is not synchronized with concurrent floods.
func (nw *Network) Instrument(reg *obs.Registry, traces *obs.FloodTraces) {
	if reg == nil {
		nw.obs = nil
		return
	}
	nw.obs = &netObs{
		reg:           reg,
		floods:        reg.Counter("gnet_floods_total"),
		messages:      reg.Counter("gnet_flood_messages_total"),
		reached:       reg.Counter("gnet_flood_peers_reached_total"),
		results:       reg.Counter("gnet_flood_results_total"),
		lossDrops:     reg.Counter("gnet_flood_loss_drops_total"),
		deadDrops:     reg.Counter("gnet_flood_dead_drops_total"),
		qrpSuppressed: reg.Counter("gnet_flood_qrp_suppressed_total"),
		probes:        reg.Counter("gnet_flood_probes_total"),
		dense:         reg.Counter("gnet_flood_dense_total"),
		postings:      reg.Counter("gnet_flood_postings_total"),
		hitHops:       reg.Histogram("gnet_flood_hit_hops", []int64{1, 2, 3, 4, 5, 6, 8}),
		msgPerFlood:   reg.Histogram("gnet_flood_messages", []int64{10, 100, 1000, 10000, 100000}),
		traces:        traces,
	}
}

// maintMetrics mirrors RepairStats into live counters. The zero value
// (all-nil handles) is the disabled state: Counter methods are nil-safe,
// so maintenance code increments unconditionally.
type maintMetrics struct {
	departures       *obs.Counter
	politeDepartures *obs.Counter
	arrivals         *obs.Counter
	pingsSent        *obs.Counter
	pongsReceived    *obs.Counter
	pingsLost        *obs.Counter
	failuresDetected *obs.Counter
	byesReceived     *obs.Counter
	repairAttempts   *obs.Counter
	repairFailures   *obs.Counter
	repairSuccesses  *obs.Counter
	hostRejected     *obs.Counter
}

func newMaintMetrics(reg *obs.Registry) maintMetrics {
	return maintMetrics{
		departures:       reg.Counter("gnet_maint_departures_total"),
		politeDepartures: reg.Counter("gnet_maint_polite_departures_total"),
		arrivals:         reg.Counter("gnet_maint_arrivals_total"),
		pingsSent:        reg.Counter("gnet_maint_pings_sent_total"),
		pongsReceived:    reg.Counter("gnet_maint_pongs_received_total"),
		pingsLost:        reg.Counter("gnet_maint_pings_lost_total"),
		failuresDetected: reg.Counter("gnet_maint_failures_detected_total"),
		byesReceived:     reg.Counter("gnet_maint_byes_received_total"),
		repairAttempts:   reg.Counter("gnet_maint_repair_attempts_total"),
		repairFailures:   reg.Counter("gnet_maint_repair_failures_total"),
		repairSuccesses:  reg.Counter("gnet_maint_repair_successes_total"),
		hostRejected:     reg.Counter("gnet_hostcache_rejected_total"),
	}
}
