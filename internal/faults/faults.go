// Package faults is the deterministic fault-injection plane for the wire
// substrate. The paper's measurements come from crawling a live,
// failure-prone network; this package makes those failure modes exist in
// the in-process substitute so the measurement path (crawler, floods) can
// be exercised — and hardened — against them.
//
// Every fault decision is drawn from a stream derived from (seed, site,
// key, nth-call-for-that-key), so schedules are reproducible from the root
// seed, independent of unrelated call ordering, and two runs with the same
// seed observe identical fault schedules. A nil *Plane, or a Config whose
// probabilities are all zero, injects nothing and draws nothing: the plane
// is provably inert by default.
package faults

import (
	"sync"

	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// Config holds the injectable fault probabilities. The zero value disables
// every fault.
type Config struct {
	// Seed roots the fault schedule. Two planes with equal Config produce
	// identical schedules.
	Seed uint64

	// DialTimeout is the probability that a Dial attempt times out before
	// a connection is established (transient: a later attempt re-rolls).
	DialTimeout float64
	// HandshakeStall is the probability that the servent stalls during the
	// GNUTELLA/0.6 handshake: it reads the client's greeting, then goes
	// silent and drops the connection.
	HandshakeStall float64
	// ConnReset is the probability that an established connection is reset
	// mid-stream: after a bounded number of bytes delivered to the client,
	// reads and writes fail with ErrConnReset.
	ConnReset float64
	// TruncateWrite is the probability that the servent's response stream
	// is cut mid-descriptor: the client receives a truncated final message
	// and then a clean EOF.
	TruncateWrite float64
	// PeerDepart is the per-descriptor probability that the serving peer
	// departs mid-session (the connection closes between response batches).
	PeerDepart float64
	// MessageLoss is the per-hop probability that a flooded descriptor is
	// transmitted but never delivered.
	MessageLoss float64
}

// Enabled reports whether any fault probability is positive.
func (c Config) Enabled() bool {
	return c.DialTimeout > 0 || c.HandshakeStall > 0 || c.ConnReset > 0 ||
		c.TruncateWrite > 0 || c.PeerDepart > 0 || c.MessageLoss > 0
}

// Injection sites, used as stream names so each fault class draws from an
// independent sequence.
const (
	siteDial      = "faults/dial"
	siteHandshake = "faults/handshake"
	siteReset     = "faults/reset"
	siteTruncate  = "faults/truncate"
	siteDepart    = "faults/depart"
	siteLoss      = "faults/loss"
)

// Plane is one fault-injection engine. It is safe for concurrent use (the
// servent side of a connection runs on its own goroutine). All methods are
// nil-safe: a nil plane injects nothing.
type Plane struct {
	cfg Config

	// om holds the per-site fired counters published to an attached
	// observability registry. The zero value (all-nil handles) records
	// nothing; Counter increments on nil handles are no-ops, so injection
	// sites never branch on whether a registry is attached.
	om planeObs

	mu       sync.Mutex
	counters map[counterKey]uint64
	alive    []bool // liveness mask; nil means every peer is alive
}

// planeObs carries one fired-event counter per injection site.
type planeObs struct {
	dial, handshake, reset, truncate, depart, loss *obs.Counter
}

// Instrument attaches fired-event counters (faults_<site>_fired_total) to
// reg; a nil reg detaches. Counts are sums of independent fire decisions,
// so they are invariant under scheduling. Attach before the plane is
// shared across goroutines: the handles are written without locking.
func (p *Plane) Instrument(reg *obs.Registry) {
	if p == nil {
		return
	}
	if reg == nil {
		p.om = planeObs{}
		return
	}
	p.om = planeObs{
		dial:      reg.Counter("faults_dial_fired_total"),
		handshake: reg.Counter("faults_handshake_fired_total"),
		reset:     reg.Counter("faults_reset_fired_total"),
		truncate:  reg.Counter("faults_truncate_fired_total"),
		depart:    reg.Counter("faults_depart_fired_total"),
		loss:      reg.Counter("faults_loss_fired_total"),
	}
}

// fired records one fire decision at site.
func (p *Plane) fired(site string) {
	switch site {
	case siteDial:
		p.om.dial.Inc()
	case siteHandshake:
		p.om.handshake.Inc()
	case siteReset:
		p.om.reset.Inc()
	case siteTruncate:
		p.om.truncate.Inc()
	case siteDepart:
		p.om.depart.Inc()
	}
}

type counterKey struct {
	site string
	key  uint64
}

// New returns a Plane for cfg. New(Config{}) is a valid, inert plane.
func New(cfg Config) *Plane {
	return &Plane{cfg: cfg, counters: make(map[counterKey]uint64)}
}

// Config returns the plane's configuration (zero Config for a nil plane).
func (p *Plane) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// SetLiveness installs a liveness mask: peers whose entry is false are
// dead — dials to them time out and flooded descriptors addressed to them
// are dropped. The mask is indexed by peer ID; a nil mask (the default)
// marks every peer alive. The mask is typically produced by
// internal/churn's OnlineMask so crawler and churn experiments share one
// session model.
func (p *Plane) SetLiveness(mask []bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.alive = mask
	p.mu.Unlock()
}

// Alive reports whether peer id is alive under the current liveness mask.
func (p *Plane) Alive(id int) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.alive == nil || id < 0 || id >= len(p.alive) {
		return true
	}
	return p.alive[id]
}

// LivenessSnapshot returns the current liveness mask, nil when every peer
// is alive. The slice is shared with the plane and must be treated as
// read-only; flood contexts capture it once per flood so the per-envelope
// liveness test costs an index instead of a mutex acquisition.
func (p *Plane) LivenessSnapshot() []bool {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alive
}

// next returns the per-(site, key) call counter, post-incremented.
func (p *Plane) next(site string, key uint64) uint64 {
	ck := counterKey{site, key}
	p.mu.Lock()
	n := p.counters[ck]
	p.counters[ck] = n + 1
	p.mu.Unlock()
	return n
}

// stream derives the decision stream for the nth event at (site, key).
func (p *Plane) stream(site string, key, n uint64) *rng.Source {
	// Mix key and call index into the seed with distinct odd constants so
	// nearby keys and consecutive calls land on unrelated streams.
	derived := p.cfg.Seed ^ (key * 0x9e3779b97f4a7c15) ^ (n * 0xbf58476d1ce4e5b9)
	return rng.NewNamed(derived, site)
}

// roll decides one fault event. Zero probability returns false without
// touching any state, keeping the plane inert when disabled.
func (p *Plane) roll(site string, key uint64, prob float64) (*rng.Source, bool) {
	if p == nil || prob <= 0 {
		return nil, false
	}
	r := p.stream(site, key, p.next(site, key))
	if !r.Bool(prob) {
		return nil, false
	}
	p.fired(site)
	return r, true
}

// DialTimeout reports whether this dial attempt to peer id times out.
// Successive attempts to the same peer re-roll, so dial faults are
// transient and a retrying client can get through.
func (p *Plane) DialTimeout(id int) bool {
	_, fire := p.roll(siteDial, uint64(id), p.Config().DialTimeout)
	return fire
}

// HandshakeStall reports whether the servent stalls this handshake.
func (p *Plane) HandshakeStall(id int) bool {
	_, fire := p.roll(siteHandshake, uint64(id), p.Config().HandshakeStall)
	return fire
}

// connBudgetMin/Max bound how many bytes a faulted connection delivers
// before dying. The minimum clears the ~200-byte handshake so stream
// faults hit the message phase, not the handshake (which has its own
// fault class).
const (
	connBudgetMin = 512
	connBudgetMax = 16384
)

// ConnReset decides whether this connection is reset mid-stream; when it
// fires, budget is how many bytes the client may read before the reset.
func (p *Plane) ConnReset(id int) (budget int, fire bool) {
	r, fire := p.roll(siteReset, uint64(id), p.Config().ConnReset)
	if !fire {
		return 0, false
	}
	return connBudgetMin + r.Intn(connBudgetMax-connBudgetMin), true
}

// TruncateWrite decides whether the servent's response stream is cut
// mid-descriptor; when it fires, budget is the byte position of the cut.
func (p *Plane) TruncateWrite(id int) (budget int, fire bool) {
	r, fire := p.roll(siteTruncate, uint64(id), p.Config().TruncateWrite)
	if !fire {
		return 0, false
	}
	return connBudgetMin + r.Intn(connBudgetMax-connBudgetMin), true
}

// PeerDepart reports whether peer id departs before serving its next
// descriptor or result batch.
func (p *Plane) PeerDepart(id int) bool {
	_, fire := p.roll(siteDepart, uint64(id), p.Config().PeerDepart)
	return fire
}

// MessageLossAt decides whether the nth descriptor transmitted to peer
// `to` within the flood identified by salt is lost. Each transmission
// rolls independently, so a copy arriving over another overlay edge may
// still get through. The decision is a pure function of (seed, salt, to,
// n): it reads no plane state beyond the configuration, so floods running
// on different workers — or the same floods re-run in a different order —
// observe identical loss schedules. Callers derive salt from per-trial
// randomness (the flood GUID) and count n per destination within the
// flood.
func (p *Plane) MessageLossAt(salt uint64, to int, n uint64) bool {
	if p == nil {
		return false
	}
	prob := p.cfg.MessageLoss
	if prob <= 0 {
		return false
	}
	derived := p.cfg.Seed ^ (salt * 0x94d049bb133111eb) ^
		(uint64(to) * 0x9e3779b97f4a7c15) ^ (n * 0xbf58476d1ce4e5b9)
	if rng.NewNamed(derived, siteLoss).Bool(prob) {
		p.om.loss.Inc()
		return true
	}
	return false
}
