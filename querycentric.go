// Package querycentric reproduces "On the need for query-centric
// unstructured peer-to-peer overlays" (Acosta & Chandra, IPPS 2008): the
// trace substrates (a wire-level Gnutella network + crawler, a DAAP/iTunes
// share population + crawler, a temporal query-workload generator), the
// paper's analyses (replica/term/annotation distributions, popular-term
// stability, transient popularity, the query/file term mismatch), the
// search simulations (flooding, random walks, Chord, hybrid, Gia, adaptive
// synopses) and one experiment runner per table and figure.
//
// This package is the public facade: it re-exports the curated surface of
// the internal packages through type aliases and constructors, so
// downstream users never import querycentric/internal/... directly.
//
// # Quick start
//
//	env := querycentric.NewEnv(querycentric.ScaleTiny, 42)
//	fig1, err := querycentric.Fig1(env)   // crawl + replica analysis
//	fig6, err := querycentric.Fig6(env)   // popular-term stability
//	fig8, err := querycentric.Fig8(env)   // flood success simulation
//
// The Example functions show the facade end to end; the cmd/ tools run
// every experiment, and DESIGN.md maps the system.
package querycentric

import (
	"io"

	"querycentric/internal/capacity"
	"querycentric/internal/events"
	"querycentric/internal/experiments"
	"querycentric/internal/faults"
	"querycentric/internal/obs"
)

// Observability plane (see internal/obs): a deterministic metrics/event
// layer every subsystem can publish into. Disabled (nil) it costs nothing
// and changes nothing; enabled, its snapshots are byte-identical at every
// worker count.
type (
	Registry       = obs.Registry
	Snapshot       = obs.Snapshot
	SnapshotMetric = obs.SnapshotMetric
	MetricBucket   = obs.Bucket
	FloodTraces    = obs.FloodTraces
	FloodTrace     = obs.FloodTrace
	RunManifest    = obs.Manifest
	PhaseTiming    = obs.PhaseTiming
	WindowLog      = obs.WindowLog
	WindowSeries   = obs.WindowSeries
	WindowPoint    = obs.WindowPoint
)

// Observability constructors and helpers.
var (
	NewRegistry    = obs.NewRegistry
	NewFloodTraces = obs.NewFloodTraces
	NewWindowLog   = obs.NewWindowLog
	RunFileName    = obs.RunFileName
)

// Result is implemented by every experiment result type: a stable name
// and the tab-separated table qc-sim and qc-figures render. Table()[0] is
// the header row (without the leading "# ").
type Result = experiments.Result

// WriteResultTable renders a Result as a commented-header TSV table.
func WriteResultTable(w io.Writer, r Result) error { return experiments.WriteTable(w, r) }

// Scale selects experiment sizing (tiny/small/default/full/1m).
type Scale = experiments.Scale

// Scales from smoke test to paper scale and beyond (Scale1M is the
// million-peer substrate scale served by the sharded build + mapped load).
const (
	ScaleTiny    = experiments.ScaleTiny
	ScaleSmall   = experiments.ScaleSmall
	ScaleDefault = experiments.ScaleDefault
	ScaleFull    = experiments.ScaleFull
	Scale1M      = experiments.Scale1M
)

// ParseScale parses "tiny", "small", "default", "full" or "1m".
func ParseScale(s string) (Scale, error) { return experiments.ParseScale(s) }

// Env builds and memoizes the shared experiment artifacts (crawled traces,
// query workload) for one (scale, seed).
type Env = experiments.Env

// NewEnv creates an experiment environment.
func NewEnv(scale Scale, seed uint64) *Env { return experiments.NewEnv(scale, seed) }

// Experiment result types, one per table/figure (see DESIGN.md §4).
type (
	DistResult        = experiments.DistResult
	Fig4Result        = experiments.Fig4Result
	Fig5Result        = experiments.Fig5Result
	Fig6Result        = experiments.Fig6Result
	Fig7Result        = experiments.Fig7Result
	Fig8Result        = experiments.Fig8Result
	Fig8Curve         = experiments.Fig8Curve
	TTLCoverageResult = experiments.TTLCoverageResult
	HybridVsDHTResult = experiments.HybridVsDHTResult
	SynopsisResult    = experiments.SynopsisResult
	GiaResult         = experiments.GiaResult
	RareObjectResult  = experiments.RareObjectResult
)

// Fig1 reproduces Figure 1 (object-name replica distribution).
func Fig1(e *Env) (*DistResult, error) { return experiments.Fig1(e) }

// Fig2 reproduces Figure 2 (sanitized-name replica distribution).
func Fig2(e *Env) (*DistResult, error) { return experiments.Fig2(e) }

// Fig3 reproduces Figure 3 (per-term peer distribution).
func Fig3(e *Env) (*DistResult, error) { return experiments.Fig3(e) }

// Fig4 reproduces Figure 4(a–d) (iTunes annotation distributions).
func Fig4(e *Env) (*Fig4Result, error) { return experiments.Fig4(e) }

// Fig5 reproduces Figure 5 (transiently popular terms per interval).
func Fig5(e *Env) (*Fig5Result, error) { return experiments.Fig5(e) }

// Fig5Intervals are the evaluation intervals swept by Fig5 (seconds).
var Fig5Intervals = experiments.Fig5Intervals

// Fig6 reproduces Figure 6 (popular-term stability).
func Fig6(e *Env) (*Fig6Result, error) { return experiments.Fig6(e) }

// Fig7 reproduces Figure 7 (query/file term mismatch).
func Fig7(e *Env) (*Fig7Result, error) { return experiments.Fig7(e) }

// Fig8 reproduces Figure 8 (flood success, uniform vs Zipf placement).
func Fig8(e *Env) (*Fig8Result, error) { return experiments.Fig8(e) }

// TTLCoverage reproduces the §V TTL/coverage table.
func TTLCoverage(e *Env) (*TTLCoverageResult, error) { return experiments.TTLCoverage(e) }

// HybridVsDHT reproduces the §V/§VII hybrid-vs-DHT comparison.
func HybridVsDHT(e *Env) (*HybridVsDHTResult, error) { return experiments.HybridVsDHT(e) }

// SynopsisAblation runs the §VII adaptive-synopsis extension experiment.
func SynopsisAblation(e *Env) (*SynopsisResult, error) { return experiments.SynopsisAblation(e) }

// GiaComparison reproduces the §VI Gia rebuttal.
func GiaComparison(e *Env) (*GiaResult, error) { return experiments.GiaComparison(e) }

// RareObjectFraction reproduces the §VI "<4% of objects on ≥20 peers" check.
func RareObjectFraction(e *Env) (*RareObjectResult, error) {
	return experiments.RareObjectFraction(e)
}

// DHTRoutingResult compares Chord and Pastry lookup costs.
type DHTRoutingResult = experiments.DHTRoutingResult

// DHTRouting measures mean lookup hops of the two structured baselines.
func DHTRouting(e *Env) (*DHTRoutingResult, error) { return experiments.DHTRouting(e) }

// QRPResult shows QRP's effect: message savings without success gains.
type QRPResult = experiments.QRPResult

// QRPEffect floods one workload with and without QRP route tables.
func QRPEffect(e *Env) (*QRPResult, error) { return experiments.QRPEffect(e) }

// ChurnResult compares search availability under session churn.
type ChurnResult = experiments.ChurnResult

// ChurnComparison runs the churn experiment (uniform vs Zipf placement).
func ChurnComparison(e *Env) (*ChurnResult, error) { return experiments.ChurnComparison(e) }

// WalkVsFloodResult compares unstructured search mechanisms.
type WalkVsFloodResult = experiments.WalkVsFloodResult

// WalkVsFlood compares flooding, random walks and the expanding ring.
func WalkVsFlood(e *Env) (*WalkVsFloodResult, error) { return experiments.WalkVsFlood(e) }

// ReplicationResult is the allocation-strategy ablation.
type ReplicationResult = experiments.ReplicationResult

// ReplicationStrategies measures uniform/proportional/square-root replica
// allocation driven by query vs file popularity.
func ReplicationStrategies(e *Env) (*ReplicationResult, error) {
	return experiments.ReplicationStrategies(e)
}

// ShortcutsResult is the interest-based-shortcuts extension.
type ShortcutsResult = experiments.ShortcutsResult

// ShortcutsExperiment measures interest-based shortcuts under stable and
// shifting query popularity.
func ShortcutsExperiment(e *Env) (*ShortcutsResult, error) {
	return experiments.ShortcutsExperiment(e)
}

// FaultSweepResult sweeps substrate fault rates against crawl coverage and
// flood success (the robustness experiment).
type (
	FaultSweepResult = experiments.FaultSweepResult
	FaultPoint       = experiments.FaultPoint
	FaultSweepConfig = experiments.FaultSweepConfig
)

// FaultSweep crawls and floods one population under increasing substrate
// fault rates, quantifying the trace bias a lossy network introduces into
// Figures 1–4 and the Figure 8 flood-success degradation.
func FaultSweep(e *Env) (*FaultSweepResult, error) { return experiments.FaultSweep(e) }

// FaultSweepWith runs the fault sweep with explicit rates, churn-derived
// dead-peer fraction and crawler attempt budget.
func FaultSweepWith(e *Env, cfg FaultSweepConfig) (*FaultSweepResult, error) {
	return experiments.FaultSweepWith(e, cfg)
}

// ChurnRepair types: the self-healing-overlay experiment (churn-driven
// departures, ping/pong failure detection, host-cache topology repair).
type (
	ChurnRepairResult = experiments.ChurnRepairResult
	ChurnRepairSample = experiments.ChurnRepairSample
	ChurnRepairConfig = experiments.ChurnRepairConfig
)

// DefaultChurnRepairConfig returns the standard churn-repair schedule.
func DefaultChurnRepairConfig(seed uint64) ChurnRepairConfig {
	return experiments.DefaultChurnRepairConfig(seed)
}

// ChurnRepair replays one churn timeline against the overlay with and
// without the maintenance protocol, measuring how much of the flood-success
// loss self-healing recovers.
func ChurnRepair(e *Env) (*ChurnRepairResult, error) { return experiments.ChurnRepair(e) }

// ChurnRepairWith runs the churn-repair comparison with explicit timeline,
// repair and measurement parameters.
func ChurnRepairWith(e *Env, cfg ChurnRepairConfig) (*ChurnRepairResult, error) {
	return experiments.ChurnRepairWith(e, cfg)
}

// Discrete-event simulation layer (see internal/events): a deterministic
// timestamped priority queue onto which churn, fault bursts, overlay
// maintenance and query floods are scheduled as interleaved events, with
// windowed metrics streamed through the observability plane. The scenario
// constructors package the canonical long-horizon workloads.
type (
	EventEngine    = events.Engine
	EventPriority  = events.Priority
	EventHandler   = events.Handler
	Scenario       = events.Scenario
	ScenarioKind   = events.Kind
	ScenarioConfig = events.ScenarioConfig
	ScenarioResult = events.ScenarioResult
	ScenarioWindow = events.Window
	FlashConfig    = events.FlashConfig
	FaultBurst     = faults.Burst
)

// Event priorities (same-timestamp execution order) and scenario kinds.
const (
	PrioChurn  = events.PrioChurn
	PrioFault  = events.PrioFault
	PrioMaint  = events.PrioMaint
	PrioAdapt  = events.PrioAdapt
	PrioQuery  = events.PrioQuery
	PrioWindow = events.PrioWindow

	SteadyState   = events.SteadyState
	FaultRecovery = events.FaultRecovery
	FlashCrowd    = events.FlashCrowd
	DiurnalLoad   = events.DiurnalLoad
)

// Event-engine constructors and canonical scenario configurations.
var (
	NewEventEngine        = events.New
	NewScenario           = events.NewScenario
	SteadyStateScenario   = events.SteadyStateScenario
	FaultRecoveryScenario = events.FaultRecoveryScenario
	FlashCrowdScenario    = events.FlashCrowdScenario
	DiurnalScenario       = events.DiurnalScenario
	ValidateBursts        = faults.ValidateBursts
)

// Recovery types: the fault-burst recovery experiment on the event engine
// (correlated crash, windowed success, time-to-recover with and without
// the maintenance protocol).
type (
	RecoveryResult = experiments.RecoveryResult
	RecoveryConfig = experiments.RecoveryConfig
)

// DefaultRecoveryConfig returns the standard recovery schedule (30% crash
// one third into a two-hour run).
func DefaultRecoveryConfig(seed uint64) RecoveryConfig {
	return experiments.DefaultRecoveryConfig(seed)
}

// Recovery measures the overlay's recovery curve after a correlated crash
// burst, with and without maintenance.
func Recovery(e *Env) (*RecoveryResult, error) { return experiments.Recovery(e) }

// RecoveryWith runs the recovery comparison with explicit burst, window
// and repair parameters.
func RecoveryWith(e *Env, cfg RecoveryConfig) (*RecoveryResult, error) {
	return experiments.RecoveryWith(e, cfg)
}

// Bounded-capacity overload plane (see internal/capacity): per-peer
// ingress queues with configurable depth and service cost, pluggable
// shedding policies and per-peer circuit breakers, attached to a network
// via Network.SetCapacity or ScenarioConfig.Capacity. Inert by default: a
// nil plane (or disabled config) leaves every run byte-identical to the
// unbounded substrate.
type (
	CapacityConfig = capacity.Config
	CapacityPlane  = capacity.Plane
	CapacityStats  = capacity.Stats
	ShedPolicy     = capacity.Policy
)

// Shedding policies.
const (
	ShedUnbounded = capacity.Unbounded
	ShedDropTail  = capacity.DropTail
	ShedRED       = capacity.RED
	ShedTTLAware  = capacity.TTLAware
)

// Capacity-plane constructors.
var (
	NewCapacityPlane      = capacity.New
	DefaultCapacityConfig = capacity.DefaultConfig
	ParseShedPolicy       = capacity.ParsePolicy
)

// Saturation types: the flash-crowd overload sweep comparing shedding
// policies against the unbounded-queue assumption.
type (
	SaturationResult = experiments.SaturationResult
	SaturationConfig = experiments.SaturationConfig
	SaturationArm    = experiments.SaturationArm
	SaturationPoint  = experiments.SaturationPoint
)

// DefaultSaturationConfig returns the standard saturation sweep (a 9x
// offered-load range over a one-hour flash crowd).
func DefaultSaturationConfig(seed uint64) SaturationConfig {
	return experiments.DefaultSaturationConfig(seed)
}

// Saturation sweeps the flash-crowd scenario over offered load for every
// capacity arm.
func Saturation(e *Env) (*SaturationResult, error) { return experiments.Saturation(e) }

// SaturationWith runs the sweep with explicit loads, queue model and
// shedding arms.
func SaturationWith(e *Env, cfg SaturationConfig) (*SaturationResult, error) {
	return experiments.SaturationWith(e, cfg)
}

// SweepPoint is one evaluation-interval setting's mean statistic.
type SweepPoint = experiments.SweepPoint

// Fig6Sweep repeats Figure 6 across evaluation intervals.
func Fig6Sweep(e *Env) ([]SweepPoint, error) { return experiments.Fig6Sweep(e) }

// Fig7Sweep repeats Figure 7 across evaluation intervals.
func Fig7Sweep(e *Env) ([]SweepPoint, error) { return experiments.Fig7Sweep(e) }
