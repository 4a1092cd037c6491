package events

import (
	"fmt"
	"math"

	"querycentric/internal/capacity"
	"querycentric/internal/churn"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/parallel"
	"querycentric/internal/rng"
	"querycentric/internal/strategy"
)

// The scenario layer turns the bare queue into named long-horizon
// workloads: it wires one overlay network, its maintenance loop, a churn
// timeline, a fault-burst schedule and a query load onto the engine, and
// measures *windowed* metrics — success rate, message cost, partition
// count, repair latency — instead of end-of-trial aggregates. Three
// canonical scenarios cover the failure modes the static trial engine
// cannot express: steady state (the oracle case), fault-burst + recovery,
// and flash crowds on a transiently popular term.

// Kind names a canonical scenario shape. It is descriptive metadata — the
// config fields drive behavior — but the constructors below keep the two
// in sync.
type Kind int

// Canonical scenario kinds.
const (
	SteadyState Kind = iota
	FaultRecovery
	FlashCrowd
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SteadyState:
		return "steady-state"
	case FaultRecovery:
		return "fault-recovery"
	case FlashCrowd:
		return "flash-crowd"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FlashConfig shapes a flash crowd: between Start and End, query volume is
// multiplied by Boost and a fraction Frac of queries all chase one
// transiently popular object (the paper's Figure 5 population, compressed
// to a single term).
type FlashConfig struct {
	Start int64   `json:"start"`
	End   int64   `json:"end"`
	Frac  float64 `json:"frac"`
	Boost float64 `json:"boost"`
}

// Validate rejects malformed flash crowds.
func (f FlashConfig) Validate() error {
	switch {
	case f.Start < 0 || f.End <= f.Start:
		return fmt.Errorf("events: flash window [%d,%d) is empty or negative", f.Start, f.End)
	case math.IsNaN(f.Frac) || f.Frac < 0 || f.Frac > 1:
		return fmt.Errorf("events: flash Frac must be in [0,1], got %v", f.Frac)
	case math.IsNaN(f.Boost) || f.Boost <= 0:
		return fmt.Errorf("events: flash Boost must be positive, got %v", f.Boost)
	}
	return nil
}

// ScenarioConfig shapes one long-horizon simulation.
type ScenarioConfig struct {
	Kind Kind
	// Seed roots the engine's per-event streams and the query workload.
	Seed uint64
	// Duration is the simulated horizon in seconds; it must be a whole
	// number of windows.
	Duration int64
	// Window is the metrics-window length in seconds.
	Window int64
	// QueriesPerWindow is the base query volume per window (flash crowds
	// scale it).
	QueriesPerWindow int
	// BatchesPerWindow spreads each window's queries over this many query
	// events, so topology changes interleave with load inside a window.
	// Each batch fans its floods out through internal/parallel.
	BatchesPerWindow int
	// TTL bounds the measurement floods.
	TTL int
	// Workers bounds the per-batch flood fan-out (0 = GOMAXPROCS).
	// Results are byte-identical for every value.
	Workers int
	// Repair shapes the maintenance loop; Repair.Repair false disables
	// failure detection and rewiring (the no-maintenance arm).
	Repair gnet.RepairConfig
	// Churn, when non-nil, generates a session-churn timeline whose events
	// are scheduled onto the queue.
	Churn *churn.TimelineConfig
	// Bursts is the correlated-failure schedule (strictly increasing
	// times).
	Bursts []faults.Burst
	// Flash, when non-nil, adds a flash crowd.
	Flash *FlashConfig
	// Capacity, when non-nil and enabled, attaches a bounded-ingress
	// overload plane to the network: floods and keepalives charge per-peer
	// queues, shedding policies drop overload, and query batches fold queue
	// state every Capacity.CommitEvery trials. Nil (or a disabled config)
	// leaves the run byte-identical to the unbounded engine.
	Capacity *capacity.Config
	// QueryRetries is how many extra flood attempts an unanswered (or
	// untimely) query makes, each a full-cost flood on its own derived
	// stream — the user-behavior feedback loop that makes overload
	// self-amplifying. 0 (the default) preserves single-attempt behavior.
	QueryRetries int
	// AnswerDeadlineS is the queueing-delay budget for a hit to count:
	// a query succeeds only if some answering peer's committed queue delay
	// is within the deadline. 0 defaults to Window. Only consulted when a
	// capacity plane is attached.
	AnswerDeadlineS int64
	// SeriesPrefix prefixes the windowed obs series names; empty uses
	// "events_".
	SeriesPrefix string
}

// Validate rejects schedules that cannot run.
func (c ScenarioConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("events: Duration must be positive, got %d", c.Duration)
	case c.Window <= 0:
		return fmt.Errorf("events: Window must be positive, got %d", c.Window)
	case c.Duration%c.Window != 0:
		return fmt.Errorf("events: Duration %d is not a whole number of %d-second windows", c.Duration, c.Window)
	case c.QueriesPerWindow < 1:
		return fmt.Errorf("events: QueriesPerWindow must be at least 1, got %d", c.QueriesPerWindow)
	case c.BatchesPerWindow < 1:
		return fmt.Errorf("events: BatchesPerWindow must be at least 1, got %d", c.BatchesPerWindow)
	case c.TTL < 1:
		return fmt.Errorf("events: TTL must be at least 1, got %d", c.TTL)
	}
	if err := c.Repair.Validate(); err != nil {
		return err
	}
	if c.Churn != nil {
		if err := c.Churn.Validate(); err != nil {
			return err
		}
	}
	if err := faults.ValidateBursts(c.Bursts); err != nil {
		return err
	}
	if c.Flash != nil {
		if err := c.Flash.Validate(); err != nil {
			return err
		}
	}
	if c.Capacity != nil {
		if err := c.Capacity.Validate(); err != nil {
			return err
		}
	}
	if c.QueryRetries < 0 {
		return fmt.Errorf("events: QueryRetries must be >= 0, got %d", c.QueryRetries)
	}
	if c.AnswerDeadlineS < 0 {
		return fmt.Errorf("events: AnswerDeadlineS must be >= 0, got %d", c.AnswerDeadlineS)
	}
	return nil
}

// Window is one closed metrics window.
type Window struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Queries and Hits count the window's known-item floods and how many
	// returned at least one timely result; Success is their ratio.
	Queries int     `json:"queries"`
	Hits    int     `json:"hits"`
	Success float64 `json:"success"`
	// Messages counts query descriptors transmitted; MsgPerQuery is the
	// per-flood mean.
	Messages    int64   `json:"messages"`
	MsgPerQuery float64 `json:"msg_per_query"`
	// OnlineFrac and MeanDegree describe the population at window close
	// (ghost edges count toward degree — the peer still believes in them).
	OnlineFrac float64 `json:"online_frac"`
	MeanDegree float64 `json:"mean_degree"`
	// Partitions is the number of connected components among online peers
	// at window close (1 = healthy, higher = fragmentation).
	Partitions int `json:"partitions"`
	// Repaired counts peers whose repair-relevant degree returned to
	// target during the window; RepairLatency is their mean
	// deficit-to-restoration time in seconds (0 when none).
	Repaired      int     `json:"repaired"`
	RepairLatency float64 `json:"repair_latency_s"`
	// Capacity-plane deltas for the window, zero (and omitted from JSON)
	// when no plane is attached: messages shed by bounded queues, the shed
	// fraction of all admission attempts, and breaker open transitions.
	Shed         int64   `json:"shed,omitempty"`
	ShedFrac     float64 `json:"shed_frac,omitempty"`
	BreakerOpens int64   `json:"breaker_opens,omitempty"`
}

// ScenarioResult is one scenario run's windowed output.
type ScenarioResult struct {
	Kind            string           `json:"kind"`
	Peers           int              `json:"peers"`
	TTL             int              `json:"ttl"`
	EventsProcessed uint64           `json:"events_processed"`
	ChurnEvents     int              `json:"churn_events"`
	Windows         []Window         `json:"windows"`
	RepairStats     gnet.RepairStats `json:"repair_stats"`
	// Capacity is the overload plane's end-of-run tallies; nil (omitted)
	// when no plane was attached.
	Capacity *capacity.Stats `json:"capacity,omitempty"`
}

// Scenario is one configured run: an engine, a network under maintenance,
// and the windowed accumulators.
type Scenario struct {
	cfg ScenarioConfig
	nw  *gnet.Network
	m   *gnet.Maintainer
	eng *Engine
	tl  *churn.Timeline

	qbase *rng.Source // query workload stream family

	// capPlane is the attached overload plane (nil when disabled); lastCap
	// is its stats snapshot at the previous window close, for deltas.
	capPlane *capacity.Plane
	lastCap  capacity.Stats

	flashCriteria string

	// Current-window accumulators, reset at each window close.
	win         strategy.Tally
	winRepaired int
	winLatency  int64

	// deficitSince[id] is when peer id's repair-relevant degree fell below
	// target (-1 = none). Restoration during a window feeds the window's
	// repair-latency metric.
	deficitSince []int64

	windows []Window
	wlog    *obs.WindowLog
	prefix  string
}

// NewScenario wires cfg onto nw: builds the maintenance loop (seeded from
// the churn timeline's initial liveness when churn is configured) and
// schedules every event of the run — churn transitions, fault bursts,
// maintenance rounds, query batches and window closes.
func NewScenario(nw *gnet.Network, cfg ScenarioConfig) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(nw.Peers)
	eng, err := New(cfg.Seed, cfg.Duration)
	if err != nil {
		return nil, err
	}
	s := &Scenario{
		cfg:          cfg,
		nw:           nw,
		eng:          eng,
		qbase:        rng.NewNamed(cfg.Seed, "events/queries"),
		deficitSince: make([]int64, n),
		prefix:       cfg.SeriesPrefix,
	}
	if s.prefix == "" {
		s.prefix = "events_"
	}
	for i := range s.deficitSince {
		s.deficitSince[i] = -1
	}

	var initial []bool
	if cfg.Churn != nil {
		tcfg := *cfg.Churn
		tcfg.Duration = cfg.Duration
		tl, err := churn.GenerateTimeline(tcfg, n)
		if err != nil {
			return nil, err
		}
		s.tl = tl
		initial = tl.Initial
	}
	m, err := gnet.NewMaintainer(nw, cfg.Repair, initial)
	if err != nil {
		return nil, err
	}
	s.m = m
	if cfg.Capacity != nil {
		pl, err := capacity.New(*cfg.Capacity, n)
		if err != nil {
			return nil, err
		}
		// A disabled config yields an inert plane; leave it detached so the
		// run stays byte-identical to the unbounded engine.
		if pl.Enabled() {
			nw.SetCapacity(pl)
			s.capPlane = pl
		}
	}
	if cfg.Flash != nil {
		s.flashCriteria = pickFlashObject(nw, cfg.Seed)
	}
	if err := s.schedule(); err != nil {
		return nil, err
	}
	return s, nil
}

// Instrument attaches the observability plane: engine counters into reg,
// windowed series into wl (either may be nil). The network's own flood and
// maintenance counters attach through Network.Instrument as usual.
func (s *Scenario) Instrument(reg *obs.Registry, wl *obs.WindowLog) {
	s.eng.Instrument(reg)
	s.capPlane.Instrument(reg)
	s.wlog = wl
}

// CapacityStats exposes the overload plane's committed tallies (zero when
// no plane is attached).
func (s *Scenario) CapacityStats() capacity.Stats { return s.capPlane.Stats() }

// pickFlashObject deterministically selects the transiently popular object
// a flash crowd chases: a library entry of a deterministically drawn peer.
func pickFlashObject(nw *gnet.Network, seed uint64) string {
	r := rng.NewNamed(seed, "events/flash")
	id := nw.PickLive(nil, r, -1)
	if id < 0 {
		return ""
	}
	lib := nw.Peers[id].Library
	return lib[r.Intn(len(lib))].Name
}

// ScheduleTimeline replays a churn timeline onto a maintained overlay: one
// PrioChurn event "churn/<i>" per transition, in timeline order. after,
// when non-nil, runs once each transition has applied.
func ScheduleTimeline(e *Engine, tl *churn.Timeline, m *gnet.Maintainer, after func(now int64)) error {
	for i, ev := range tl.Events {
		err := e.Schedule(ev.Time, PrioChurn, fmt.Sprintf("churn/%d", i), func(now int64, _ *rng.Source) error {
			var err error
			if ev.Up {
				err = m.PeerUp(int(ev.Peer), now)
			} else {
				err = m.PeerDown(int(ev.Peer), ev.Polite)
			}
			if err == nil && after != nil {
				after(now)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// schedule enqueues every event of the run.
func (s *Scenario) schedule() error {
	cfg := s.cfg

	if s.tl != nil {
		if err := ScheduleTimeline(s.eng, s.tl, s.m, s.noteDeficits); err != nil {
			return err
		}
	}

	// Correlated fault bursts. Victims are a pure function of (seed, burst
	// time, population); politeness draws from the event's own stream.
	for _, b := range cfg.Bursts {
		b := b
		name := fmt.Sprintf("burst/%d", b.Time)
		err := s.eng.Schedule(b.Time, PrioFault, name, func(now int64, r *rng.Source) error {
			for _, id := range b.Victims(cfg.Seed, len(s.nw.Peers)) {
				if err := s.m.PeerDown(id, r.Bool(b.Polite)); err != nil {
					return err
				}
			}
			s.noteDeficits(now)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Maintenance rounds, self-rescheduling every PingInterval. The
	// no-repair arm skips them entirely (Tick would be a no-op).
	if cfg.Repair.Repair {
		interval := cfg.Repair.PingInterval
		err := Every(s.eng, interval, interval, PrioMaint, "maint", func(_ int, now int64) error {
			// Service time elapses before the round's pings charge the
			// queues; the round's admissions fold immediately after.
			s.capPlane.Advance(now)
			s.m.Tick(now)
			s.capPlane.Commit(now)
			s.noteDeficits(now)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Query batches: each window's volume spread over BatchesPerWindow
	// events strictly inside the window, then scaled by any flash crowd.
	nWindows := int(cfg.Duration / cfg.Window)
	for w := 0; w < nWindows; w++ {
		wStart := int64(w) * cfg.Window
		for b := 0; b < cfg.BatchesPerWindow; b++ {
			at := wStart + int64(b+1)*cfg.Window/int64(cfg.BatchesPerWindow+1)
			count := s.batchSize(at, w, b)
			if count == 0 {
				continue
			}
			name := fmt.Sprintf("query/%d/%d", w, b)
			err := s.eng.Schedule(at, PrioQuery, name, func(now int64, _ *rng.Source) error {
				return s.queryBatch(now, name, count)
			})
			if err != nil {
				return err
			}
		}
	}

	// Window closes, after everything else at the boundary instant.
	for w := 1; w <= nWindows; w++ {
		w := w
		at := int64(w) * cfg.Window
		name := fmt.Sprintf("window/%d", w)
		err := s.eng.Schedule(at, PrioWindow, name, func(now int64, _ *rng.Source) error {
			s.closeWindow(now-cfg.Window, now)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// batchSize is the query count of batch b of window w: the base per-batch
// share, scaled by a flash crowd's volume boost.
func (s *Scenario) batchSize(at int64, w, b int) int {
	cfg := s.cfg
	base := cfg.QueriesPerWindow / cfg.BatchesPerWindow
	if b < cfg.QueriesPerWindow%cfg.BatchesPerWindow {
		base++
	}
	scale := 1.0
	if cfg.Flash != nil && at >= cfg.Flash.Start && at < cfg.Flash.End {
		scale *= cfg.Flash.Boost
	}
	return int(math.Round(float64(base) * scale))
}

// flashFrac returns the fraction of queries redirected at the flash object
// at time `at` (0 outside the flash window).
func (s *Scenario) flashFrac(at int64) float64 {
	f := s.cfg.Flash
	if f == nil || s.flashCriteria == "" || at < f.Start || at >= f.End {
		return 0
	}
	return f.Frac
}

// queryBatch floods count known-item queries at sim-time now, fanned out
// through the parallel engine: each trial owns a stream derived from the
// batch name, so results are byte-identical at every worker count.
//
// Under an attached capacity plane the batch runs in sub-batches of
// Capacity.CommitEvery trials with a queue-state fold between them:
// admission inside a sub-batch is optimistic against the phase-frozen
// depths (so a queue can overshoot by at most the sub-batch size), and
// every fold is keyed by trial index, not scheduling order, so the split
// is worker-invariant. An unanswered — or untimely — query retries up to
// QueryRetries extra floods on its own derived streams.
func (s *Scenario) queryBatch(now int64, name string, count int) error {
	online := s.m.Online()
	flashFrac := s.flashFrac(now)
	pl := s.capPlane
	pl.Advance(now)
	deadline := s.answerDeadline()
	runTrial := func(ctx *gnet.FloodCtx, q int, r *rng.Source) (strategy.Outcome, error) {
		var t strategy.Outcome
		criteria := ""
		if flashFrac > 0 && r.Bool(flashFrac) {
			criteria = s.flashCriteria
		}
		origin := s.nw.PickLive(online, r, -1)
		if origin < 0 {
			return t, nil
		}
		if criteria == "" {
			target := s.nw.PickLive(online, r, origin)
			if target < 0 {
				return t, nil
			}
			lib := s.nw.Peers[target].Library
			criteria = lib[r.Intn(len(lib))].Name
		}
		for a := 0; a <= s.cfg.QueryRetries; a++ {
			ar := r
			if a > 0 {
				ar = s.qbase.Derive(fmt.Sprintf("%s/trial/%d/retry/%d", name, q, a))
			}
			fr, err := ctx.Flood(origin, criteria, s.cfg.TTL, ar)
			if err != nil {
				break // flood errors count as misses
			}
			t.Messages += fr.Messages
			if s.timelyHit(fr, deadline) {
				t.Found = true
				break
			}
		}
		return t, nil
	}
	stride := count
	if ce := pl.Config().CommitEvery; pl.Enabled() && ce > 0 && ce < stride {
		stride = ce
	}
	for lo := 0; lo < count; lo += stride {
		t, err := strategy.RunTrials(parallel.Workers(s.cfg.Workers), lo, min(lo+stride, count),
			s.qbase, name+"/trial/", s.nw.NewFloodCtx, runTrial)
		if err != nil {
			return err
		}
		s.win.Merge(t)
		pl.Commit(now)
	}
	return nil
}

// answerDeadline is the queueing-delay budget for a hit to count.
func (s *Scenario) answerDeadline() int64 {
	if s.cfg.AnswerDeadlineS > 0 {
		return s.cfg.AnswerDeadlineS
	}
	return s.cfg.Window
}

// timelyHit reports whether a flood's results arrive within the deadline:
// at least one answering peer whose committed queue backlog services the
// query in time. Without a capacity plane every hit is instant (the
// unbounded assumption the plane exists to interrogate).
func (s *Scenario) timelyHit(fr *gnet.FloodResult, deadline int64) bool {
	if fr.TotalResults == 0 {
		return false
	}
	if s.capPlane == nil {
		return true
	}
	for _, h := range fr.Hits {
		if s.capPlane.QueueDelayS(h.PeerID) <= deadline {
			return true
		}
	}
	return false
}

// liveDegree is peer id's ground-truth repair-relevant degree: connections
// to currently online peers, restricted to the class repair maintains
// (ultrapeer links on two-tier topologies). Unlike Maintainer.RepairDegree
// it does not count ghost edges — a crash opens a deficit here immediately,
// even though the peer itself won't notice until failure detection fires.
func (s *Scenario) liveDegree(id int) int {
	online := s.m.Online()
	d := 0
	for _, nb := range s.nw.Peers[id].Neighbors {
		if !online[nb] {
			continue
		}
		if s.nw.Config.UltrapeerFrac > 0 && !s.nw.Peers[nb].Ultrapeer {
			continue
		}
		d++
	}
	return d
}

// noteDeficits updates the per-peer degree-deficit clocks after a
// topology-affecting event. A deficit opens when an online peer's live
// degree (ghost edges excluded) drops below target — at the crash itself —
// and closes when maintenance restores the target with live edges, so the
// recorded latency spans detection plus repair.
func (s *Scenario) noteDeficits(now int64) {
	for id := range s.nw.Peers {
		if !s.m.Online()[id] {
			s.deficitSince[id] = -1
			continue
		}
		deficit := s.liveDegree(id) < s.m.TargetDegree(id)
		switch {
		case deficit && s.deficitSince[id] < 0:
			s.deficitSince[id] = now
		case !deficit && s.deficitSince[id] >= 0:
			s.winRepaired++
			s.winLatency += now - s.deficitSince[id]
			s.deficitSince[id] = -1
		}
	}
}

// closeWindow freezes the current window's metrics and resets the
// accumulators.
func (s *Scenario) closeWindow(start, end int64) {
	w := Window{
		Start:       start,
		End:         end,
		Queries:     s.win.Queries,
		Hits:        s.win.Hits,
		Messages:    int64(s.win.Messages),
		Success:     s.win.Success(),
		MsgPerQuery: s.win.MeanMessages(),
		Repaired:    s.winRepaired,
	}
	if w.Repaired > 0 {
		w.RepairLatency = float64(s.winLatency) / float64(w.Repaired)
	}
	online := s.m.Online()
	w.OnlineFrac, w.MeanDegree = gnet.LiveDegree(s.nw, online)
	w.Partitions = s.nw.Partitions(online)
	if s.capPlane != nil {
		s.capPlane.Advance(end)
		st := s.capPlane.Stats()
		w.Shed = st.Shed - s.lastCap.Shed
		w.BreakerOpens = st.BreakerOpens - s.lastCap.BreakerOpens
		if att := w.Shed + (st.Enqueued - s.lastCap.Enqueued); att > 0 {
			w.ShedFrac = float64(w.Shed) / float64(att)
		}
		s.lastCap = st
	}
	s.windows = append(s.windows, w)

	s.wlog.Add(s.prefix+"success", start, end, w.Success)
	s.wlog.Add(s.prefix+"msg_per_query", start, end, w.MsgPerQuery)
	s.wlog.Add(s.prefix+"online_frac", start, end, w.OnlineFrac)
	s.wlog.Add(s.prefix+"mean_degree", start, end, w.MeanDegree)
	s.wlog.Add(s.prefix+"partitions", start, end, float64(w.Partitions))
	s.wlog.Add(s.prefix+"repair_latency_s", start, end, w.RepairLatency)
	s.wlog.Add(s.prefix+"queries", start, end, float64(w.Queries))
	// The shed series only exists when the plane is attached, keeping
	// capacity-disabled window logs byte-identical to the unbounded engine.
	if s.capPlane != nil {
		s.wlog.Add(s.prefix+"shed_frac", start, end, w.ShedFrac)
	}

	s.win, s.winRepaired, s.winLatency = strategy.Tally{}, 0, 0
}

// Run executes the scenario to the horizon and returns the windowed
// result.
func (s *Scenario) Run() (*ScenarioResult, error) {
	if err := s.eng.Run(); err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Kind:            s.cfg.Kind.String(),
		Peers:           len(s.nw.Peers),
		TTL:             s.cfg.TTL,
		EventsProcessed: s.eng.Processed(),
		Windows:         s.windows,
		RepairStats:     s.m.Stats(),
	}
	if s.tl != nil {
		res.ChurnEvents = len(s.tl.Events)
	}
	if s.capPlane != nil {
		st := s.capPlane.Stats()
		res.Capacity = &st
	}
	return res, nil
}
