// Package crawler implements a Cruiser-style two-phase Gnutella crawler
// against the in-process network of internal/gnet.
//
// Phase 1 (topology crawl) walks the overlay by dialing peers, reading the
// X-Try-Ultrapeers handshake header and harvesting pong-cached neighbour
// addresses from a TTL-2 ping — exactly the discovery channels deployed
// crawlers used. Phase 2 (file crawl) re-connects to every discovered peer
// and enumerates its shared library with a browse query. The output is a
// trace.ObjectTrace: the only artifact downstream analyses may consume, so
// nothing the generator knows leaks around the measurement path.
//
// The crawler is shaped for a failure-prone substrate (see internal/faults):
// transient connection failures are retried with exponential backoff and
// jitter under a per-peer attempt budget, peers that die mid-browse keep
// the files already read (partial-browse tolerance), and the Stats funnel
// makes every degradation mode observable. With a fault-free network none
// of this machinery fires and the crawl is byte-identical to a single-pass
// crawler.
package crawler

import (
	"errors"
	"fmt"
	"io"
	"time"

	"querycentric/internal/gmsg"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/rng"
	"querycentric/internal/trace"
)

// Config controls a crawl.
type Config struct {
	// Seeds are bootstrap addresses. Empty defaults to the first peer.
	Seeds []gnet.Addr
	// MaxAttempts is the per-peer connection attempt budget; transient
	// failures are re-queued until it is exhausted. 0 means 1 (a single
	// attempt, no retries). Firewall refusals are permanent and never
	// retried.
	MaxAttempts int
	// BackoffBase shapes the exponential backoff between attempts to the
	// same peer: attempt k waits min(BackoffBase·2^(k-1), backoffMax),
	// halved and jittered. A zero BackoffBase disables waiting (retries are
	// still bounded and re-queued).
	BackoffBase time.Duration
	// Seed drives backoff jitter (and nothing else): crawl results are
	// identical for any Seed; only retry pacing varies.
	Seed uint64

	// Obs, when non-nil, publishes the crawl funnel (discovered → crawled →
	// firewalled/failed plus the degradation counters) to the observability
	// registry at crawl end. Purely observational: attaching a registry
	// never changes what the crawl records.
	Obs *obs.Registry

	// sleep is the backoff clock, replaceable in tests.
	sleep func(time.Duration)
}

// pingTTL is the TTL of the discovery ping: 2 asks for pong-cached
// neighbours as well as the peer itself.
const pingTTL byte = 2

// backoffMax caps the wait between attempts to the same peer.
const backoffMax = 50 * time.Millisecond

// DefaultConfig returns the standard crawl configuration: three attempts
// per peer, millisecond-scale backoff.
func DefaultConfig() Config {
	return Config{
		MaxAttempts: 3,
		BackoffBase: 2 * time.Millisecond,
	}
}

// Stats summarizes crawl outcomes, mirroring the funnel the paper reports
// (discovered → crawled → firewalled/failed) extended with the degradation
// counters a lossy substrate makes necessary. Every terminal bucket counts
// peers, never attempts.
type Stats struct {
	Discovered     int // distinct addresses learned
	Crawled        int // peers whose library was fully read
	Firewalled     int // connection refused (permanent, never retried)
	Failed         int // peers that ultimately failed with nothing read
	Retried        int // retry attempts performed beyond each peer's first
	PartialBrowses int // peers that died mid-browse; their partial library is kept
	GaveUp         int // peers whose attempt budget was exhausted
}

// String formats the funnel for reports. The degradation counters are
// appended only when any is nonzero, so fault-free output matches the
// classic funnel byte for byte.
func (s *Stats) String() string {
	out := fmt.Sprintf("discovered=%d crawled=%d firewalled=%d failed=%d",
		s.Discovered, s.Crawled, s.Firewalled, s.Failed)
	if s.Retried != 0 || s.PartialBrowses != 0 || s.GaveUp != 0 {
		out += fmt.Sprintf(" retried=%d partial=%d gaveup=%d",
			s.Retried, s.PartialBrowses, s.GaveUp)
	}
	return out
}

// peerState tracks retry bookkeeping for one discovered address.
type peerState struct {
	attempts int
	// bestFiles is the longest partial enumeration observed so far, kept
	// in case every remaining attempt also dies mid-browse.
	bestFiles []string
}

// Crawl performs the two-phase crawl and returns the object trace.
func Crawl(nw *gnet.Network, cfg Config) (*trace.ObjectTrace, *Stats, error) {
	if len(nw.Peers) == 0 {
		return nil, nil, errors.New("crawler: empty network")
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []gnet.Addr{nw.Peers[0].Addr}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	sleep := cfg.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	jitter := rng.NewNamed(cfg.Seed, "crawler/backoff")

	stats := &Stats{}
	seen := map[gnet.Addr]bool{}
	state := map[gnet.Addr]*peerState{}
	frontier := make([]gnet.Addr, 0, len(seeds))
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			frontier = append(frontier, s)
		}
	}

	tr := &trace.ObjectTrace{Source: "gnutella-sim-crawl"}
	peerIndex := map[gnet.Addr]int{}
	record := func(addr gnet.Addr, files []string) {
		idx, ok := peerIndex[addr]
		if !ok {
			idx = len(peerIndex)
			peerIndex[addr] = idx
		}
		tr.Peers = len(peerIndex)
		for _, name := range files {
			tr.Records = append(tr.Records, trace.ObjectRecord{Peer: idx, Name: name})
		}
	}

	for len(frontier) > 0 {
		addr := frontier[0]
		frontier = frontier[1:]

		st := state[addr]
		if st == nil {
			st = &peerState{}
			state[addr] = st
		}
		if st.attempts > 0 {
			stats.Retried++
			if d := backoff(cfg, st.attempts, jitter); d > 0 {
				sleep(d)
			}
		}
		st.attempts++

		discovered, files, err := crawlOne(nw, addr)
		switch {
		case errors.Is(err, gnet.ErrFirewalled):
			stats.Firewalled++
		case err != nil:
			if len(files) > len(st.bestFiles) {
				st.bestFiles = files
			}
			if st.attempts < cfg.MaxAttempts {
				frontier = append(frontier, addr) // re-queue the transient failure
			} else {
				stats.GaveUp++
				if len(st.bestFiles) > 0 {
					stats.PartialBrowses++
					record(addr, st.bestFiles)
				} else {
					stats.Failed++
				}
			}
		default:
			stats.Crawled++
			record(addr, files)
		}
		for _, a := range discovered {
			if !seen[a] {
				seen[a] = true
				frontier = append(frontier, a)
			}
		}
	}
	stats.Discovered = len(seen)
	if cfg.Obs != nil {
		// The funnel is accumulated by the (single-goroutine) crawl loop
		// and published once, so the counters are trivially deterministic.
		add := func(name string, v int) { cfg.Obs.Counter(name).Add(int64(v)) }
		add("crawler_discovered_total", stats.Discovered)
		add("crawler_crawled_total", stats.Crawled)
		add("crawler_firewalled_total", stats.Firewalled)
		add("crawler_failed_total", stats.Failed)
		add("crawler_retried_total", stats.Retried)
		add("crawler_partial_browses_total", stats.PartialBrowses)
		add("crawler_gaveup_total", stats.GaveUp)
		add("crawler_records_total", len(tr.Records))
	}
	return tr, stats, nil
}

// backoff returns the jittered exponential wait before retry number
// attempt (1 = first retry).
func backoff(cfg Config, attempt int, jitter *rng.Source) time.Duration {
	if cfg.BackoffBase <= 0 {
		return 0
	}
	d := cfg.BackoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	// Half fixed, half jittered: wait in [d/2, d).
	return d/2 + time.Duration(jitter.Float64()*float64(d/2))
}

// crawlOne dials one peer, discovers its neighbours and browses its
// library. Even on failure, any addresses and files already read are
// returned, so the caller can keep partial progress.
func crawlOne(nw *gnet.Network, addr gnet.Addr) (discovered []gnet.Addr, files []string, err error) {
	conn, err := nw.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()

	h, err := gnet.Connect(conn, map[string]string{
		"User-Agent": "querycentric-cruiser/0.1",
		"X-Crawler":  "True",
	})
	if err != nil {
		return nil, nil, err
	}
	if v, ok := h.Headers["x-try-ultrapeers"]; ok {
		discovered = append(discovered, gnet.ParseTryUltrapeers(v)...)
	}

	// Send the discovery ping and the browse query back to back; the
	// servent answers in order, so every Pong precedes the first QueryHit.
	pingGUID := gmsg.GUIDFromUint64s(uint64(addr.Port)<<32|uint64(addr.IP[3]), 0x637261776c6572)
	browseGUID := gmsg.GUIDFromUint64s(0x62726f777365, uint64(addr.IP[2])<<8|uint64(addr.IP[1]))
	ping := &gmsg.Message{Header: gmsg.Header{GUID: pingGUID, Type: gmsg.TypePing, TTL: pingTTL}}
	browse := &gmsg.Message{
		Header: gmsg.Header{GUID: browseGUID, Type: gmsg.TypeQuery, TTL: 1},
		Query:  &gmsg.Query{Criteria: gnet.BrowseCriteria},
	}
	// Write concurrently with reading: the transport may be unbuffered
	// (net.Pipe), so the servent's responses to the ping must be drained
	// while the browse query is still being written.
	writeErr := make(chan error, 1)
	go func() { writeErr <- writeAll(conn, ping, browse) }()
	defer func() {
		if werr := <-writeErr; werr != nil && err == nil {
			err = werr
		}
	}()

	for {
		m, err := gmsg.ReadMessage(conn)
		if err != nil {
			// A connection that dies mid-browse still yields the files
			// already enumerated.
			return discovered, files, fmt.Errorf("crawler: reading from %s: %w", addr, err)
		}
		switch m.Header.Type {
		case gmsg.TypePong:
			discovered = append(discovered, gnet.Addr{IP: m.Pong.IP, Port: m.Pong.Port})
		case gmsg.TypeQueryHit:
			for _, r := range m.QueryHit.Results {
				files = append(files, r.FileName)
			}
			if len(m.QueryHit.Results) < browseBatch {
				return discovered, files, nil
			}
		default:
			// Ignore anything else.
		}
	}
}

// browseBatch mirrors gnet's per-QueryHit batching: a hit with fewer
// results than this ends the browse stream.
const browseBatch = 200

func writeAll(w io.Writer, msgs ...*gmsg.Message) error {
	for _, m := range msgs {
		if err := gmsg.WriteMessage(w, m); err != nil {
			return err
		}
	}
	return nil
}
