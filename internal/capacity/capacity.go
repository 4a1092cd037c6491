// Package capacity is the deterministic overload plane: every peer gets a
// bounded ingress queue with a configurable per-message service cost, a
// pluggable shedding policy (drop-tail, deterministic random-early-drop,
// TTL-aware), and a per-peer circuit breaker that stops neighbors from
// forwarding to a queue that keeps rejecting them. The paper's message-cost
// numbers silently assume peers absorb unlimited traffic instantly; this
// plane makes that assumption a measurable arm instead of a constant.
//
// Determinism contract. Queue state is mutated only from single-threaded
// event-handler code (Advance, Commit); the concurrent flood fan-out reads
// a frozen snapshot of committed queue depths and breaker states, makes
// per-message admission decisions that are pure functions of (seed, flood
// salt, destination, attempt index), and accumulates outcomes into
// commutative atomic tallies. Commit then folds the tallies back into the
// committed state in canonical (peer-id) order. Results are therefore
// byte-identical at any worker count. Admission within one phase is
// optimistic — concurrent floods all see the phase-start depth, so a queue
// can transiently exceed QueueDepth by at most the number of messages one
// phase admits; callers bound that overshoot by committing every
// CommitEvery queries (see events.Scenario).
//
// Like the fault plane, capacity is inert by default: a nil *Plane, or a
// Config with zero ServiceCostMs, admits everything, draws nothing and
// touches no state, so disabled runs are byte-identical to a build without
// the plane.
package capacity

import (
	"fmt"
	"sync/atomic"

	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// Policy selects how a full (or filling) ingress queue sheds messages.
type Policy uint8

// Shedding policies. Unbounded tracks backlog but never sheds — the arm
// that shows what infinite queues cost. DropTail rejects only when the
// committed depth has reached QueueDepth. RED (random early drop) starts
// shedding probabilistically at half occupancy, reaching certainty at full
// occupancy, on a per-(peer,message) derived stream. TTLAware scales the
// far-copy admission threshold with the message's remaining TTL and gives
// fresh (full-TTL) messages an express lane — their own backlog counter,
// served first — so far-from-origin copies are shed first and fresh
// queries keep reaching their immediate neighborhood even at saturation.
// The two lanes mean a TTL-aware queue's total occupancy is bounded by
// 2x QueueDepth (plus phase overshoot) rather than QueueDepth.
const (
	Unbounded Policy = iota
	DropTail
	RED
	TTLAware
)

// String names the policy with its CLI token.
func (p Policy) String() string {
	switch p {
	case Unbounded:
		return "unbounded"
	case DropTail:
		return "drop-tail"
	case RED:
		return "red"
	case TTLAware:
		return "ttl"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a CLI policy token.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "unbounded":
		return Unbounded, nil
	case "drop-tail":
		return DropTail, nil
	case "red":
		return RED, nil
	case "ttl":
		return TTLAware, nil
	}
	return 0, fmt.Errorf("capacity: unknown shed policy %q (unbounded|drop-tail|red|ttl)", s)
}

// metricToken is the policy's metric-name suffix.
func (p Policy) metricToken() string {
	switch p {
	case DropTail:
		return "drop_tail"
	case RED:
		return "red"
	case TTLAware:
		return "ttl"
	default:
		return "unbounded"
	}
}

// Config shapes the overload plane. The zero value disables everything.
type Config struct {
	// Seed roots the plane's decision streams (the RED drop rolls). Two
	// planes with equal Config shed identically.
	Seed uint64
	// QueueDepth is the per-peer ingress-queue bound in messages. Policies
	// other than Unbounded require it positive.
	QueueDepth int
	// ServiceCostMs is the simulated service time per queued message in
	// milliseconds; a peer drains one message every ServiceCostMs of sim
	// time. Zero disables the whole plane.
	ServiceCostMs int
	// Policy selects the shedding discipline.
	Policy Policy
	// CommitEvery bounds optimistic admission: callers fold outcomes into
	// committed state after this many concurrent queries, so a queue can
	// overshoot QueueDepth by at most CommitEvery. 0 commits once per batch.
	CommitEvery int
	// Breakers enables the per-peer circuit breaker.
	Breakers bool
	// BreakerWindow (M) and BreakerTrip (N) define the trip rule: a
	// breaker opens when the peer's queue rejected at least N of the last M
	// full-TTL (fresh) sends — far-ring shedding is not breaker evidence.
	BreakerWindow int
	BreakerTrip   int
	// BreakerCooldownS is how long an open breaker suppresses sends before
	// half-opening to let probes through, in simulated seconds.
	BreakerCooldownS int64
}

// Enabled reports whether the plane does anything at all.
func (c Config) Enabled() bool { return c.ServiceCostMs > 0 }

// DefaultConfig returns the standard bounded-peer model: a 16-message
// queue served at one message per 10 simulated seconds, drop-tail
// shedding, optimistic admission folded every 8 queries, and (when
// enabled) a last-resort 15-of-16 breaker with a one-minute cooldown —
// it opens only when a neighbor rejects essentially all fresh traffic,
// and probes again quickly so blackouts stay short.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		QueueDepth:       16,
		ServiceCostMs:    10000,
		Policy:           DropTail,
		CommitEvery:      8,
		BreakerWindow:    16,
		BreakerTrip:      15,
		BreakerCooldownS: 60,
	}
}

// Validate rejects configurations that cannot run. A disabled config is
// always valid.
func (c Config) Validate() error {
	if !c.Enabled() {
		if c.ServiceCostMs < 0 {
			return fmt.Errorf("capacity: ServiceCostMs must be >= 0, got %d", c.ServiceCostMs)
		}
		return nil
	}
	switch {
	case c.Policy > TTLAware:
		return fmt.Errorf("capacity: unknown policy %d", c.Policy)
	case c.Policy != Unbounded && c.QueueDepth < 1:
		return fmt.Errorf("capacity: QueueDepth must be positive for policy %s, got %d", c.Policy, c.QueueDepth)
	case c.QueueDepth < 0:
		return fmt.Errorf("capacity: QueueDepth must be >= 0, got %d", c.QueueDepth)
	case c.CommitEvery < 0:
		return fmt.Errorf("capacity: CommitEvery must be >= 0, got %d", c.CommitEvery)
	}
	if c.Breakers {
		switch {
		case c.BreakerWindow < 1:
			return fmt.Errorf("capacity: BreakerWindow must be positive, got %d", c.BreakerWindow)
		case c.BreakerTrip < 1 || c.BreakerTrip > c.BreakerWindow:
			return fmt.Errorf("capacity: BreakerTrip must be in [1,%d], got %d", c.BreakerWindow, c.BreakerTrip)
		case c.BreakerCooldownS < 1:
			return fmt.Errorf("capacity: BreakerCooldownS must be positive, got %d", c.BreakerCooldownS)
		}
	}
	return nil
}

// siteRED is the hash of "capacity/red", the RED decision stream's name,
// taken once rather than on every roll.
var siteRED = rng.NameHash("capacity/red")

// Breaker states.
const (
	brClosed uint8 = iota
	brOpen
	brHalfOpen
)

// breaker is one peer's circuit-breaker state machine: a ring of the last
// M send outcomes while closed, an open phase that suppresses sends until
// the cooldown elapses, and a half-open phase where the next committed
// phase's probes decide between closing and re-opening.
type breaker struct {
	window   []bool // ring of the last BreakerWindow outcomes; true = reject
	idx      int
	count    int
	rejects  int
	state    uint8
	openedAt int64
}

// Stats are the plane's committed tallies. All fields are folded
// single-threaded at Commit (suppressions are folded from an atomic), so a
// Stats snapshot is schedule-invariant.
type Stats struct {
	// Enqueued and Shed count admission outcomes; Served counts messages
	// drained by elapsed service time.
	Enqueued int64 `json:"enqueued"`
	Shed     int64 `json:"shed"`
	Served   int64 `json:"served"`
	// BreakerOpens counts closed/half-open -> open transitions;
	// BreakerSuppressed counts sends never transmitted because the
	// destination's breaker was open.
	BreakerOpens      int64 `json:"breaker_opens"`
	BreakerSuppressed int64 `json:"breaker_suppressed"`
	// MaxDepth is the largest committed queue depth observed.
	MaxDepth int64 `json:"max_depth"`
}

// planeObs holds the nil-safe metric handles; the zero value records
// nothing.
type planeObs struct {
	enqueued    *obs.Counter
	shed        *obs.Counter
	breakerOpen *obs.Counter
	suppressed  *obs.Counter
	depth       *obs.Histogram
}

// Plane is one overload engine over a fixed peer population. Admit,
// Blocked, QueueDelayS and AddSuppressed are safe for concurrent use
// against frozen committed state; Advance and Commit must run
// single-threaded between concurrent phases (the event engine's handler
// goroutine). All methods are nil-safe.
type Plane struct {
	cfg Config

	// depth is the committed per-peer backlog in messages, mutated only by
	// Advance (drain) and Commit (fold). Concurrent phases read it frozen.
	depth []int64
	// freshDepth (TTL-aware policy only) is the committed backlog of the
	// fresh express lane: full-TTL messages are admitted against this
	// counter alone and served before the far backlog, so far-from-origin
	// junk seized optimistically by one sub-batch cannot crowd fresh
	// queries out of the next. Invariant: freshDepth[i] <= depth[i].
	freshDepth []int64
	// attempts and rejects accumulate the current phase's admission
	// outcomes with atomic adds; sums are commutative, so they are
	// worker-invariant. freshAtt/freshRej count only full-TTL attempts —
	// the breaker's evidence (see feedBreaker).
	attempts []int64
	rejects  []int64
	freshAtt []int64
	freshRej []int64
	// blocked is the breaker suppression mask read by forwarders; written
	// only at Commit/Advance.
	blocked []bool

	breakers   []breaker
	openCount  int
	suppressed atomic.Int64

	lastAdvance int64
	carryMs     int64

	stats Stats
	om    planeObs
}

// New builds a plane for a population of n peers. A disabled config yields
// a valid, inert plane.
func New(cfg Config, n int) (*Plane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("capacity: population must be >= 0, got %d", n)
	}
	p := &Plane{cfg: cfg}
	if !cfg.Enabled() {
		return p, nil
	}
	p.depth = make([]int64, n)
	p.attempts = make([]int64, n)
	p.rejects = make([]int64, n)
	p.blocked = make([]bool, n)
	if cfg.Breakers || cfg.Policy == TTLAware {
		p.freshAtt = make([]int64, n)
		p.freshRej = make([]int64, n)
	}
	if cfg.Policy == TTLAware {
		p.freshDepth = make([]int64, n)
	}
	if cfg.Breakers {
		p.breakers = make([]breaker, n)
		for i := range p.breakers {
			p.breakers[i].window = make([]bool, cfg.BreakerWindow)
		}
	}
	return p, nil
}

// Enabled reports whether this plane sheds, queues or breaks anything.
func (p *Plane) Enabled() bool { return p != nil && p.cfg.Enabled() }

// Config returns the plane's configuration (zero Config for a nil plane).
func (p *Plane) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// Instrument attaches capacity metrics to reg; a nil reg detaches. Attach
// before concurrent phases run — the handles are written without locking.
func (p *Plane) Instrument(reg *obs.Registry) {
	if p == nil {
		return
	}
	if reg == nil {
		p.om = planeObs{}
		return
	}
	p.om = planeObs{
		enqueued:    reg.Counter("capacity_enqueued_total"),
		shed:        reg.Counter("capacity_shed_total_" + p.cfg.Policy.metricToken()),
		breakerOpen: reg.Counter("capacity_breaker_open_total"),
		suppressed:  reg.Counter("capacity_breaker_suppressed_total"),
		depth:       reg.Histogram("capacity_queue_depth", []int64{1, 2, 4, 8, 16, 32, 64, 128}),
	}
}

// Admit decides whether the nth delivery attempt to peer `to` within the
// flood identified by salt enters the ingress queue, with the message's
// remaining TTL and the flood's initial TTL driving the TTL-aware policy.
// The decision is a pure function of (config, committed depth, salt, to,
// n); the outcome lands in atomic phase tallies. Nil or disabled planes
// admit everything for free.
func (p *Plane) Admit(salt uint64, to int, n uint64, ttl, floodTTL int) bool {
	if !p.Enabled() {
		return true
	}
	atomic.AddInt64(&p.attempts[to], 1)
	fresh := p.freshAtt != nil && ttl >= floodTTL
	if fresh {
		atomic.AddInt64(&p.freshAtt[to], 1)
	}
	if p.admits(salt, to, n, ttl, floodTTL) {
		p.om.enqueued.Inc()
		return true
	}
	atomic.AddInt64(&p.rejects[to], 1)
	if fresh {
		atomic.AddInt64(&p.freshRej[to], 1)
	}
	p.om.shed.Inc()
	return false
}

// AdmitPing is Admit for a maintenance keepalive: a TTL-1 control message
// treated as fresh (full queue allowance), salted by the maintainer's
// per-round ping salt.
func (p *Plane) AdmitPing(salt uint64, to int) bool {
	return p.Admit(salt, to, 0, 1, 1)
}

// admits is the policy decision against the committed (phase-frozen)
// depth.
func (p *Plane) admits(salt uint64, to int, n uint64, ttl, floodTTL int) bool {
	d := p.depth[to]
	cap64 := int64(p.cfg.QueueDepth)
	switch p.cfg.Policy {
	case Unbounded:
		return true
	case DropTail:
		return d < cap64
	case RED:
		if d >= cap64 {
			return false
		}
		minTh := cap64 / 2
		if d < minTh {
			return true
		}
		// Linear ramp from the midpoint to certain drop at full occupancy,
		// drawn per (peer, message) so concurrent floods shed identically
		// regardless of execution order.
		prob := float64(d-minTh+1) / float64(cap64-minTh)
		derived := p.cfg.Seed ^ (salt * 0x94d049bb133111eb) ^
			(uint64(to) * 0x9e3779b97f4a7c15) ^ (n * 0xbf58476d1ce4e5b9)
		return !rng.NewHashed(derived, siteRED).Bool(prob)
	case TTLAware:
		if ttl < 1 {
			ttl = 1
		}
		if floodTTL < ttl {
			floodTTL = ttl
		}
		if ttl >= floodTTL {
			// Fresh (full-TTL) messages ride an express lane: admission
			// checks only the fresh backlog, and service drains it first,
			// so far-from-origin copies can never crowd fresh queries out.
			return p.freshDepth[to] < cap64
		}
		// A far copy with remaining TTL t may only occupy the t/T0 head of
		// the total backlog: the farther from its origin, the earlier it
		// sheds.
		allow := cap64 * int64(ttl) / int64(floodTTL)
		if allow < 1 {
			allow = 1
		}
		return d < allow
	default:
		return false
	}
}

// Blocked reports whether peer `to`'s circuit breaker is open, in which
// case forwarders suppress the send entirely (the copy is never
// transmitted and never counted as a message). Reads the phase-frozen
// mask.
func (p *Plane) Blocked(to int) bool {
	if p == nil || p.blocked == nil {
		return false
	}
	return p.blocked[to]
}

// AddSuppressed records k sends suppressed by open breakers (accumulated
// locally by a flood, published once at flood end).
func (p *Plane) AddSuppressed(k int64) {
	if p == nil || k == 0 {
		return
	}
	p.suppressed.Add(k)
	p.om.suppressed.Add(k)
}

// QueueDelayS is the committed service backlog of peer id in simulated
// seconds — how long a newly queued message waits before service.
func (p *Plane) QueueDelayS(id int) int64 {
	if !p.Enabled() {
		return 0
	}
	return p.depth[id] * int64(p.cfg.ServiceCostMs) / 1000
}

// Depth is peer id's committed queue depth in messages.
func (p *Plane) Depth(id int) int64 {
	if !p.Enabled() {
		return 0
	}
	return p.depth[id]
}

// Stats returns the committed tallies.
func (p *Plane) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	st := p.stats
	st.BreakerSuppressed = p.suppressed.Load()
	return st
}

// Advance moves the plane's clock to sim-time now: elapsed service time
// drains every queue (one message per ServiceCostMs, with the remainder
// carried), and open breakers whose cooldown has elapsed half-open.
// Single-threaded.
func (p *Plane) Advance(now int64) {
	if !p.Enabled() {
		return
	}
	if elapsed := now - p.lastAdvance; elapsed > 0 {
		p.carryMs += elapsed * 1000
		if drain := p.carryMs / int64(p.cfg.ServiceCostMs); drain > 0 {
			p.carryMs -= drain * int64(p.cfg.ServiceCostMs)
			for i, d := range p.depth {
				if d == 0 {
					continue
				}
				if d <= drain {
					p.stats.Served += d
					p.depth[i] = 0
				} else {
					p.stats.Served += drain
					p.depth[i] = d - drain
				}
				// The fresh express lane is served first; whatever service
				// the total backlog received comes out of it before the far
				// backlog (freshDepth <= depth holds by construction).
				if p.freshDepth != nil && p.freshDepth[i] > 0 {
					if f := p.freshDepth[i]; f <= drain {
						p.freshDepth[i] = 0
					} else {
						p.freshDepth[i] = f - drain
					}
				}
			}
		}
	}
	p.lastAdvance = now
	if p.openCount > 0 {
		for i := range p.breakers {
			b := &p.breakers[i]
			if b.state == brOpen && now-b.openedAt >= p.cfg.BreakerCooldownS {
				b.state = brHalfOpen
				p.blocked[i] = false
				p.openCount--
			}
		}
	}
}

// Commit folds the phase's atomic admission tallies into committed state:
// queue depths grow by the accepted count, the depth histogram observes
// every touched queue, and breaker windows consume the phase's outcomes in
// canonical order (accepts before rejects). Single-threaded; call after
// the concurrent fan-out has joined.
func (p *Plane) Commit(now int64) {
	if !p.Enabled() {
		return
	}
	for i := range p.attempts {
		att := atomic.LoadInt64(&p.attempts[i])
		if att == 0 {
			continue
		}
		rej := atomic.LoadInt64(&p.rejects[i])
		p.attempts[i], p.rejects[i] = 0, 0
		acc := att - rej
		p.stats.Enqueued += acc
		p.stats.Shed += rej
		if acc > 0 {
			p.depth[i] += acc
			if p.depth[i] > p.stats.MaxDepth {
				p.stats.MaxDepth = p.depth[i]
			}
		}
		p.om.depth.Observe(p.depth[i])
		if p.freshAtt != nil {
			fa := atomic.LoadInt64(&p.freshAtt[i])
			fr := atomic.LoadInt64(&p.freshRej[i])
			p.freshAtt[i], p.freshRej[i] = 0, 0
			if p.freshDepth != nil {
				p.freshDepth[i] += fa - fr
			}
			if p.cfg.Breakers {
				p.feedBreaker(i, fa-fr, fr, now)
			}
		}
	}
}

// feedBreaker advances peer i's breaker with one committed phase's
// outcomes: acc accepted sends then rej rejected sends, in that canonical
// order. Only full-TTL (fresh) attempts — including keepalives — count as
// evidence: a TTL-aware queue shedding far-ring copies is operating as
// designed, and must not trip its neighbors' breakers; the breaker opens
// only when even fresh traffic is rejected. While closed, outcomes enter
// the N-of-M ring; tripping opens the breaker and raises the suppression
// mask. A half-open breaker judges the
// phase as a probe round: any reject re-opens (fresh cooldown), otherwise
// any accepted probe closes it. Open breakers ignore observations (pings
// still reach the queue while floods are suppressed).
func (p *Plane) feedBreaker(i int, acc, rej int64, now int64) {
	b := &p.breakers[i]
	switch b.state {
	case brOpen:
		return
	case brHalfOpen:
		if rej > 0 {
			p.openBreaker(i, now)
		} else if acc > 0 {
			b.state = brClosed
			b.reset()
		}
		return
	}
	// Feeding more than a full window of one outcome is idempotent beyond
	// the first M, so cap the loops without changing the result.
	m := int64(p.cfg.BreakerWindow)
	if acc > m {
		acc = m
	}
	if rej > m {
		rej = m
	}
	for ; acc > 0; acc-- {
		b.push(false)
	}
	for ; rej > 0; rej-- {
		b.push(true)
		if b.rejects >= p.cfg.BreakerTrip {
			p.openBreaker(i, now)
			return
		}
	}
}

// openBreaker transitions peer i's breaker to open at sim-time now.
func (p *Plane) openBreaker(i int, now int64) {
	b := &p.breakers[i]
	if b.state != brOpen {
		p.openCount++
	}
	b.state = brOpen
	b.openedAt = now
	b.reset()
	p.blocked[i] = true
	p.stats.BreakerOpens++
	p.om.breakerOpen.Inc()
}

// push records one send outcome in the closed-state ring.
func (b *breaker) push(rej bool) {
	if b.count == len(b.window) {
		if b.window[b.idx] {
			b.rejects--
		}
	} else {
		b.count++
	}
	b.window[b.idx] = rej
	if rej {
		b.rejects++
	}
	b.idx++
	if b.idx == len(b.window) {
		b.idx = 0
	}
}

// reset clears the outcome ring.
func (b *breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.count, b.rejects = 0, 0, 0
}
