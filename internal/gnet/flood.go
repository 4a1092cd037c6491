package gnet

import (
	"fmt"
	"math"
	"math/bits"

	"querycentric/internal/capacity"
	"querycentric/internal/dict"
	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/obs"
	"querycentric/internal/qrp"
	"querycentric/internal/rng"
)

// Hit is one QueryHit observed by the query originator.
type Hit struct {
	PeerID int
	Files  []gmsg.Result
	Hops   int // hops the query had taken when it was answered
}

// FloodResult summarizes one flooded query.
type FloodResult struct {
	GUID         gmsg.GUID
	Criteria     string
	TTL          int
	PeersReached int   // peers that processed the query (excluding origin)
	Hits         []Hit // responding peers and their matching files
	TotalResults int   // total matching files across all hits

	// Messages counts query descriptors transmitted — the paper's protocol
	// cost. A descriptor is counted when a peer puts it on a connection,
	// so copies sent to a peer that another same-ring copy reaches first
	// ARE counted (both were physically transmitted before the recipient's
	// duplicate-suppression state could exist) and then dropped unprocessed
	// at the receiver. Copies to peers already processed in an earlier ring
	// are never sent: by then the forwarding ultrapeer has itself seen the
	// GUID relayed, approximating per-connection routing tables.
	Messages int
}

// FloodCtx is a reusable, single-goroutine flood engine over one network:
// epoch-stamped visit and loss-counter arrays, reusable frontier buffers,
// and per-flood fault/QRP state. A context eliminates the per-flood `seen`
// map and per-peer descriptor re-encoding of the naive implementation; the
// parallel trial engine gives each worker its own context via NewFloodCtx.
//
// A FloodCtx must not be shared between goroutines. The network itself
// (topology, libraries, QRP tables, fault plane) must not be mutated while
// floods run.
type FloodCtx struct {
	nw *Network

	seen      []int32 // epoch stamp of the flood that processed the peer
	lossEpoch []int32 // epoch stamp validating lossN
	lossN     []int32 // per-flood deliveries attempted to the peer
	capEpoch  []int32 // epoch stamp validating capN
	capN      []int32 // per-flood queue-admission attempts at the peer
	cand      []int32 // epoch stamp of the flood whose rarest term the peer holds (selectHolders)
	epoch     int32

	frontier []int32
	next     []int32

	// qids holds the flood's query resolved to shared-dictionary TermIDs
	// (hoisted once per flood); qhash the hoisted QRP slots. ms is the
	// per-peer match scratch — deliberately distinct from qids, since a
	// peer on a local-dictionary fallback re-resolves into ms.ids and must
	// not clobber the hoisted IDs other peers still read.
	qids  []dict.TermID
	qhash []uint32
	ms    matchScratch

	// Path capture (opt-in, see SetPathCapture): pathParent[to] is the peer
	// whose copy peer `to` processed, epoch-stamped like seen, so AnswerPath
	// can walk a QueryHit back to the flood's origin. The from buffers ride
	// alongside frontier/next, recording which peer transmitted each entry.
	capturePaths bool
	pathParent   []int32
	pathEpoch    []int32
	pathOrigin   int32
	fromBuf      []int32
	nextFrom     []int32
}

// NewFloodCtx returns a flood context for this network, typically one per
// worker goroutine.
func (nw *Network) NewFloodCtx() *FloodCtx {
	n := len(nw.Peers)
	return &FloodCtx{
		nw:        nw,
		seen:      make([]int32, n),
		lossEpoch: make([]int32, n),
		lossN:     make([]int32, n),
		capEpoch:  make([]int32, n),
		capN:      make([]int32, n),
	}
}

// bump advances the flood epoch, clearing the stamp arrays on the (rare)
// wrap so stale stamps can never alias a live epoch.
func (c *FloodCtx) bump() int32 {
	c.epoch++
	if c.epoch == math.MaxInt32 {
		for i := range c.seen {
			c.seen[i] = 0
			c.lossEpoch[i] = 0
			c.capEpoch[i] = 0
		}
		for i := range c.pathEpoch {
			c.pathEpoch[i] = 0
		}
		for i := range c.cand {
			c.cand[i] = 0
		}
		c.epoch = 1
	}
	return c.epoch
}

// SetPathCapture toggles per-flood answer-path recording: with capture on,
// each flood additionally stamps the forwarding parent of every processed
// peer, so AnswerPath can reconstruct the overlay route a QueryHit took.
// Capture never changes a flood's result — same reach, hits, messages —
// it only records which copy won the race at each peer (the first one in
// deterministic frontier order, matching duplicate suppression).
func (c *FloodCtx) SetPathCapture(on bool) {
	c.capturePaths = on
	if on && c.pathParent == nil {
		n := len(c.nw.Peers)
		c.pathParent = make([]int32, n)
		c.pathEpoch = make([]int32, n)
	}
}

// AnswerPath reconstructs the path the most recent flood's query took from
// its origin to `peer`, inclusive at both ends and in origin→peer order.
// It is valid until the next flood on this context and returns nil when
// capture is off or the peer was not reached.
func (c *FloodCtx) AnswerPath(peer int) []int {
	if !c.capturePaths || peer < 0 || peer >= len(c.seen) {
		return nil
	}
	if int32(peer) == c.pathOrigin {
		if c.seen[peer] == c.epoch {
			return []int{peer}
		}
		return nil
	}
	if c.seen[peer] != c.epoch {
		return nil
	}
	rev := []int{peer}
	for cur := int32(peer); cur != c.pathOrigin; {
		if c.pathEpoch[cur] != c.epoch {
			return nil // captured state incomplete (capture toggled mid-run)
		}
		cur = c.pathParent[cur]
		rev = append(rev, int(cur))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// lost decides whether this delivery attempt to peer `to` is dropped,
// counting attempts per (flood, destination) so the decision is a pure
// function of the flood's salt — independent of any other flood, on any
// worker.
func (c *FloodCtx) lost(plane *faults.Plane, salt uint64, to int32) bool {
	var n int32
	if c.lossEpoch[to] == c.epoch {
		n = c.lossN[to]
	} else {
		c.lossEpoch[to] = c.epoch
	}
	c.lossN[to] = n + 1
	return plane.MessageLossAt(salt, int(to), uint64(n))
}

// admit decides whether a delivered copy enters peer `to`'s bounded ingress
// queue, counting admission attempts per (flood, destination) exactly like
// lost() counts deliveries, so shedding is a pure function of the flood's
// salt and the phase-frozen queue depth — independent of worker count.
func (c *FloodCtx) admit(p *capacity.Plane, salt uint64, to int32, ttl, floodTTL int) bool {
	var n int32
	if c.capEpoch[to] == c.epoch {
		n = c.capN[to]
	} else {
		c.capEpoch[to] = c.epoch
	}
	c.capN[to] = n + 1
	return p.Admit(salt, int(to), uint64(n), ttl, floodTTL)
}

// Flood floods a keyword query from origin with the given TTL, following
// the Gnutella forwarding rules: decrement TTL / increment hops per hop,
// drop descriptors whose GUID was already seen, answer from each reached
// peer's library. The descriptor is encoded and re-decoded once per TTL
// ring — every copy at a given depth is byte-identical, so the wire format
// stays on the measurement path without being re-serialized per edge.
func (c *FloodCtx) Flood(origin int, criteria string, ttl int, r *rng.Source) (*FloodResult, error) {
	nw := c.nw
	if origin < 0 || origin >= len(nw.Peers) {
		return nil, fmt.Errorf("gnet: origin %d out of range", origin)
	}
	if ttl < 1 || ttl > 255 {
		return nil, fmt.Errorf("gnet: TTL %d out of range", ttl)
	}
	ga, gb := r.Uint64(), r.Uint64()
	guid := gmsg.GUIDFromUint64s(ga, gb)
	// The salt ties this flood's fault schedule to its own randomness, so
	// schedules are per-trial deterministic regardless of worker count.
	salt := ga ^ bits.RotateLeft64(gb, 32)
	q := &gmsg.Message{
		Header: gmsg.Header{GUID: guid, Type: gmsg.TypeQuery, TTL: byte(ttl)},
		Query:  &gmsg.Query{Criteria: criteria},
	}
	res := &FloodResult{GUID: guid, Criteria: criteria, TTL: ttl}
	epoch := c.bump()
	c.seen[origin] = epoch
	if c.capturePaths {
		c.pathOrigin = int32(origin)
	}

	// Per-flood hoists: the query's deduped token list resolved to shared
	// TermIDs (identical for every reached peer), the peers worth a match
	// probe, the QRP hash of the criteria (identical for every candidate
	// edge), the liveness mask, and whether loss rolls are live. A query
	// term unknown to the shared dictionary resolves to NoTerm, which no
	// posting index contains, so such floods still spread and count messages
	// but hit nowhere (the paper's query/annotation mismatch case) — except
	// at a peer whose library was mutated after construction: it matches
	// through its own local dictionary, which may know terms the shared one
	// never saw, and is probed whatever the holder index says.
	toks := TokenizeQuery(criteria)
	d := nw.dict
	matchable := len(toks) > 0
	gated := false
	if matchable && d != nil {
		c.qids, _ = d.Resolve(toks, c.qids[:0])
		gated = c.selectHolders(c.qids)
	}
	hoist := c.hoistQRPToks(criteria, toks)
	plane := nw.faults
	alive := plane.LivenessSnapshot()
	lossy := plane.Config().MessageLoss > 0
	dead := func(to int32) bool {
		return alive != nil && int(to) < len(alive) && !alive[to]
	}
	cp := nw.capacity
	capOn := cp.Enabled()

	// Observability: local tallies accumulated in registers and published
	// once at flood end, so the disabled plane costs one nil check and the
	// enabled one a handful of atomic adds per flood. perRing is only
	// tracked when a hop-trace recorder is attached.
	ob := nw.obs
	tracing := ob != nil && ob.traces.Enabled()
	var perRing []int
	var deadDrops, lossDrops, qrpSkipped int
	// breakerSkips is published to the capacity plane at flood end; shed
	// copies are tallied by the plane itself inside Admit.
	var breakerSkips int

	raw, err := gmsg.Encode(q)
	if err != nil {
		return nil, err
	}
	frontier, next := c.frontier[:0], c.next[:0]
	defer func() { c.frontier, c.next = frontier[:0], next[:0] }()
	// With path capture on, `from` rides alongside frontier: from[i] is the
	// peer that transmitted frontier[i]'s copy.
	var from, nextFrom []int32
	if c.capturePaths {
		from, nextFrom = c.fromBuf[:0], c.nextFrom[:0]
		defer func() { c.fromBuf, c.nextFrom = from[:0], nextFrom[:0] }()
	}
	for _, nb := range nw.Peers[origin].Neighbors {
		// An open circuit breaker suppresses the send at the origin: the
		// copy is never transmitted and never counted.
		if capOn && cp.Blocked(nb) {
			breakerSkips++
			continue
		}
		frontier = append(frontier, int32(nb))
		res.Messages++
		if c.capturePaths {
			from = append(from, int32(origin))
		}
	}

	twoTier := nw.Config.UltrapeerFrac > 0
	for len(frontier) > 0 {
		// One decode per ring keeps the codec on the measurement path;
		// every envelope in the ring carries these exact bytes.
		m, _, err := gmsg.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("gnet: hop decode: %w", err)
		}
		hops := int(m.Header.Hops) + 1
		forwards := m.Header.TTL > 1
		ringStart := res.PeersReached
		var fraw []byte // next ring's bytes, encoded once on first use
		for fi, to := range frontier {
			if c.seen[to] == epoch {
				continue // duplicate suppression by GUID
			}
			// Per-hop faults: a dead peer never receives, and a lost copy
			// is transmitted (already counted) but not delivered. Neither
			// marks the peer seen, so a copy arriving over another overlay
			// edge may still get through.
			if dead(to) {
				deadDrops++
				continue
			}
			if lossy && c.lost(plane, salt, to) {
				lossDrops++
				continue
			}
			// Bounded-capacity ingress: a transmitted (counted) copy that the
			// destination's queue sheds is dropped unprocessed. The peer is
			// not marked seen — a later-ring copy may find room.
			if capOn && !c.admit(cp, salt, to, int(m.Header.TTL), ttl) {
				continue
			}
			c.seen[to] = epoch
			if c.capturePaths {
				c.pathParent[to] = from[fi]
				c.pathEpoch[to] = epoch
			}
			res.PeersReached++
			peer := nw.Peers[to]
			// The peer has processed the query; whether its index is probed
			// changes no count above. A gated flood asks only the holders of
			// its rarest term and the peers the holder index does not cover.
			if matchable && (!gated || c.cand[to] == epoch || peer.unlisted) {
				if idx := peer.matchForFlood(d, c.qids, toks, &c.ms); len(idx) > 0 {
					hit := Hit{PeerID: int(to), Hops: hops, Files: make([]gmsg.Result, len(idx))}
					for i, fi := range idx {
						f := &peer.Library[fi]
						hit.Files[i] = gmsg.Result{FileIndex: f.Index, FileSize: f.Size, FileName: f.Name}
					}
					res.Hits = append(res.Hits, hit)
					res.TotalResults += len(idx)
				}
			}
			// Forward if TTL remains; leaves don't forward in two-tier
			// Gnutella (only ultrapeers relay).
			if !forwards || (twoTier && !peer.Ultrapeer) {
				continue
			}
			if fraw == nil {
				fwd := *m
				fwd.Header.TTL--
				fwd.Header.Hops++
				if fraw, err = gmsg.Encode(&fwd); err != nil {
					return nil, err
				}
			}
			for _, nb := range peer.Neighbors {
				if c.seen[nb] == epoch {
					continue
				}
				// Last-hop QRP filtering: do not waste a message on a
				// recipient that would neither relay the query further
				// (a two-tier leaf, or any peer at the final TTL ring)
				// nor match it per its route table. Relaying recipients
				// are never table-filtered — on a flat network every
				// peer holds a table, and filtering mid-route would kill
				// propagation rather than trim its last hop. For
				// two-tier networks the conditions coincide (only
				// non-relaying leaves carry tables), so deployed-shape
				// results are unchanged.
				lastHop := m.Header.TTL <= 2 || (twoTier && !nw.Peers[nb].Ultrapeer)
				if lastHop && !nw.qrpAllowsHoisted(nb, hoist) {
					qrpSkipped++
					continue
				}
				if capOn && cp.Blocked(nb) {
					breakerSkips++
					continue
				}
				next = append(next, int32(nb))
				res.Messages++
				if c.capturePaths {
					nextFrom = append(nextFrom, to)
				}
			}
		}
		if tracing {
			perRing = append(perRing, res.PeersReached-ringStart)
		}
		frontier, next = next, frontier[:0]
		if c.capturePaths {
			from, nextFrom = nextFrom, from[:0]
		}
		raw = fraw
	}
	if breakerSkips > 0 {
		cp.AddSuppressed(int64(breakerSkips))
	}
	if ob != nil {
		ob.floods.Inc()
		ob.messages.Add(int64(res.Messages))
		ob.reached.Add(int64(res.PeersReached))
		ob.results.Add(int64(res.TotalResults))
		ob.deadDrops.Add(int64(deadDrops))
		ob.lossDrops.Add(int64(lossDrops))
		ob.qrpSuppressed.Add(int64(qrpSkipped))
		ob.msgPerFlood.Observe(int64(res.Messages))
		for _, h := range res.Hits {
			ob.hitHops.Observe(int64(h.Hops))
		}
		if tracing {
			// Keyed by the flood salt — the flood's own trial randomness —
			// so the recorder's bounded retention is a deterministic uniform
			// sample of the run's floods at any worker count.
			ob.traces.Record(obs.FloodTrace{
				Key: salt, Origin: origin, TTL: ttl, Criteria: criteria,
				PerRing: perRing, Messages: res.Messages, Results: res.TotalResults,
			})
		}
	}
	return res, nil
}

// Flood is the context-free convenience form: it builds a fresh FloodCtx
// per call, so it is safe for concurrent use but pays the context
// allocation. Hot paths (benchmarks, the parallel trial engine) should
// hold a FloodCtx per worker instead.
func (nw *Network) Flood(origin int, criteria string, ttl int, r *rng.Source) (*FloodResult, error) {
	return nw.NewFloodCtx().Flood(origin, criteria, ttl, r)
}

// qrpHoist is the per-flood QRP forwarding decision: inactive when QRP is
// off or the query is a browse (always forward); otherwise the criteria's
// pre-hashed slots (nil for a keywordless query, which no table matches).
type qrpHoist struct {
	active bool
	hashes []uint32
}

// hoistQRP computes the flood-wide QRP state for a query.
func (nw *Network) hoistQRP(criteria string) qrpHoist {
	if nw.qrpTables == nil || criteria == BrowseCriteria {
		return qrpHoist{}
	}
	return qrpHoist{active: true, hashes: qrp.QueryHashes(criteria, nw.qrpBits)}
}

// hoistQRPToks computes the flood-wide QRP state from the already-deduped
// token list, reusing the context's slot scratch. Known terms read their
// precomputed hash product from the dictionary; unknown query terms are
// still string-hashed — they can false-positive into a route table, and the
// forwarding decision must not depend on which path computed the slots.
// Checking deduped tokens is equivalent to the per-occurrence QueryHashes:
// duplicate occurrences test the same slot.
func (c *FloodCtx) hoistQRPToks(criteria string, toks []string) qrpHoist {
	nw := c.nw
	if nw.qrpTables == nil || criteria == BrowseCriteria {
		return qrpHoist{}
	}
	if len(toks) == 0 {
		// Keywordless query: active with no hashes, which no table matches.
		return qrpHoist{active: true}
	}
	hs := c.qhash[:0]
	for _, tok := range toks {
		if nw.dict != nil {
			if id, ok := nw.dict.Lookup(tok); ok {
				hs = append(hs, nw.dict.Slot(id, nw.qrpBits))
				continue
			}
		}
		hs = append(hs, qrp.Hash(tok, nw.qrpBits))
	}
	c.qhash = hs
	return qrpHoist{active: true, hashes: hs}
}

// qrpAllowsHoisted is qrpAllows with the query hash pre-computed.
func (nw *Network) qrpAllowsHoisted(id int, h qrpHoist) bool {
	if !h.active {
		return true
	}
	t := nw.qrpTables[id]
	if t == nil {
		return true
	}
	return t.ContainsAll(h.hashes)
}
