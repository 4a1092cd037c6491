package gnet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"querycentric/internal/dict"
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
// epoch-stamped visit and gate-counter arrays, reusable frontier buffers,
// and per-flood fault/QRP state. A context eliminates the per-flood `seen`
// map and per-peer descriptor re-encoding of the naive implementation; the
// parallel trial engine gives each worker its own context via NewFloodCtx.
//
// A FloodCtx must not be shared between goroutines; floods on separate
// contexts may run at once (the offset columns they share are built under
// the holder index's lock). The network itself (topology, libraries, QRP
// tables, fault plane) must not be mutated while floods run.
type FloodCtx struct {
	nw *Network

	seen   []int32    // epoch stamp of the flood that processed the peer
	loss   []attempts // per-flood deliveries attempted to the peer
	admits []attempts // per-flood queue-admission attempts at the peer
	cand   []int32    // epoch stamp of the flood that may find an answer at the peer (selectHolders)
	epoch  int32

	frontier []int32
	next     []int32

	// qids holds the flood's query resolved to the network's TermIDs
	// (hoisted once per flood); qhash the hoisted QRP slots and qpass the
	// route-table pass mask they give (see qrpHoist); cols, on a
	// flood whose every term is dense, the terms' offset columns, which
	// stand in for the per-peer lookups (empty otherwise). ms is the
	// per-peer match scratch (its decoded field tallies the flood's
	// postings decoded), probes the flood's count of posting indexes read.
	qids   []dict.TermID
	qhash  []uint32
	qpass  []uint64
	cols   [][]uint32
	ms     matchScratch
	probes int

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
// worker goroutine. Only the visit stamps are allocated here; the state of
// a gate (loss and admission counters, candidate and path stamps) is
// allocated by the first flood that finds the gate live.
func (nw *Network) NewFloodCtx() *FloodCtx {
	return &FloodCtx{nw: nw, seen: make([]int32, len(nw.Peers))}
}

// bump advances the flood epoch, clearing every stamp array that exists on
// the (rare) wrap so stale stamps can never alias a live epoch.
func (c *FloodCtx) bump() int32 {
	c.epoch++
	if c.epoch == math.MaxInt32 {
		clear(c.seen)
		clear(c.loss)
		clear(c.admits)
		clear(c.pathEpoch)
		clear(c.cand)
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
	slices.Reverse(rev)
	return rev
}

// attempts counts the copies of one flood that have reached one gate at one
// peer; epoch validates n, like a seen stamp.
type attempts struct{ epoch, n int32 }

// attempt returns how many copies of this flood reached the gate at peer
// `to` before this one, and counts this one. Loss rolls and queue admissions
// are keyed by that number, so each decision is a pure function of the
// flood's salt (and the phase-frozen queue depth) — independent of any other
// flood, on any worker.
func (c *FloodCtx) attempt(gate []attempts, to int32) uint64 {
	a := &gate[to]
	if a.epoch != c.epoch {
		*a = attempts{epoch: c.epoch}
	}
	a.n++
	return uint64(a.n - 1)
}

// Flood floods a keyword query from origin with the given TTL, following
// the Gnutella forwarding rules: decrement TTL / increment hops per hop,
// drop descriptors whose GUID was already seen, answer from each reached
// peer's library. Every copy in ring k (the origin's neighbours are ring 1)
// carries hops k and TTL ttl−k+1, so the header is arithmetic and no
// descriptor is serialized; the wire codec is exercised where bytes cross a
// connection (servents, the crawler) and by the per-envelope reference the
// tests hold this flood to. A network never indexed fails with
// ErrNotIndexed.
func (c *FloodCtx) Flood(origin int, criteria string, ttl int, r *rng.Source) (*FloodResult, error) {
	nw := c.nw
	if nw.dict == nil {
		return nil, ErrNotIndexed
	}
	if origin < 0 || origin >= len(nw.Peers) {
		return nil, fmt.Errorf("gnet: origin %d out of range", origin)
	}
	if ttl < 1 || ttl > 255 {
		return nil, fmt.Errorf("gnet: TTL %d out of range", ttl)
	}
	// A query payload is the minimum speed, the criteria and a NUL.
	if len(criteria)+3 > gmsg.MaxPayload {
		return nil, fmt.Errorf("gnet: %d-byte criteria exceed the descriptor payload limit", len(criteria))
	}
	// The two draws are the query's GUID on the wire; the salt made from
	// them ties this flood's fault schedule to its own randomness, so
	// schedules are per-trial deterministic regardless of worker count.
	ga, gb := r.Uint64(), r.Uint64()
	salt := ga ^ bits.RotateLeft64(gb, 32)
	res := &FloodResult{}
	epoch := c.bump()
	seen := c.seen
	seen[origin] = epoch

	// Per-flood hoists: the query's deduped token list resolved to the
	// network's TermIDs (identical for every reached peer), the QRP hash of
	// the criteria (identical for every candidate edge, taken from the
	// resolved IDs before selectHolders reorders them), the peers worth a
	// match probe, the liveness mask, and which gates are live. A query
	// term unknown to the dictionary resolves to NoTerm, which no posting
	// index contains, so such floods still spread and count messages but hit
	// nowhere (the paper's query/annotation mismatch case). probeAll asks
	// every reached peer (through the offset columns, when selectHolders
	// found the query all-dense); otherwise cand, when set, stamps the only
	// peers worth asking.
	toks := TokenizeQuery(criteria)
	probeAll := len(toks) > 0
	var cand []int32
	c.cols, c.probes, c.ms.decoded = c.cols[:0], 0, 0
	if probeAll {
		c.qids, _ = nw.dict.Resolve(toks, c.qids[:0])
	}
	hoist := c.hoistQRPToks(criteria, toks, c.qids)
	if probeAll && c.selectHolders(c.qids) {
		probeAll, cand = false, c.cand
	}
	plane := nw.faults
	alive := plane.LivenessSnapshot()
	lossy := plane.Config().MessageLoss > 0
	cp := nw.capacity
	capOn := cp.Enabled()
	breakers := capOn && cp.Config().Breakers // the mask is never raised without them
	relay, capture := nw.relay, c.capturePaths
	// The two decisions the loops below branch on: can a delivered copy still
	// be refused, and must a relay consult more than the visit stamps?
	peerGates := alive != nil || lossy || capOn
	edgeGates := hoist.active || breakers
	if lossy && c.loss == nil {
		c.loss = make([]attempts, len(seen))
	}
	if capOn && c.admits == nil {
		c.admits = make([]attempts, len(seen))
	}

	// Observability: local tallies accumulated in registers and published
	// once at flood end, so the disabled plane costs one nil check and the
	// enabled one a handful of atomic adds per flood. perRing is only
	// tracked when a hop-trace recorder is attached.
	ob := nw.obs
	tracing := ob != nil && ob.traces.Enabled()
	var perRing []int
	// breakerSkips is published to the capacity plane at flood end; shed
	// copies are tallied by the plane itself inside Admit.
	var reached, deadDrops, lossDrops, qrpSkipped, breakerSkips int

	frontier, next := c.frontier[:0], c.next[:0]
	defer func() { c.frontier, c.next = frontier[:0], next[:0] }()
	// With path capture on, `from` rides alongside frontier: from[i] is the
	// peer that transmitted frontier[i]'s copy.
	var from, nextFrom []int32
	if capture {
		c.pathOrigin = int32(origin)
		from, nextFrom = c.fromBuf[:0], c.nextFrom[:0]
		defer func() { c.fromBuf, c.nextFrom = from[:0], nextFrom[:0] }()
	}
	for _, nb := range nw.Peers[origin].Neighbors {
		// An open circuit breaker suppresses the send at the origin: the
		// copy is never transmitted and never counted.
		if breakers && cp.Blocked(nb) {
			breakerSkips++
			continue
		}
		frontier = append(frontier, int32(nb))
		if capture {
			from = append(from, int32(origin))
		}
	}

	for ring := 1; len(frontier) > 0; ring++ {
		// Every frontier entry is one transmitted copy, whatever becomes of it.
		res.Messages += len(frontier)
		hops, copyTTL := ring, ttl-ring+1
		ringStart := reached
		if copyTTL <= 1 && !peerGates && !capture {
			// The final ring of a flood no peer gate can refuse: nobody
			// relays, so each copy is a duplicate or one more peer reached,
			// and counting the latter needs no branch. Hits keep ring order.
			for _, to := range frontier {
				if (probeAll || (cand != nil && cand[to] == epoch)) && seen[to] != epoch {
					c.answer(res, int(to), hops)
				}
				if seen[to] != epoch {
					reached++
				}
				seen[to] = epoch
			}
			frontier = frontier[:0] // all processed: nothing left for the general pass
		}
		for fi, to := range frontier {
			if seen[to] == epoch {
				continue // duplicate suppression by GUID
			}
			if peerGates {
				// Per-hop faults: a dead peer never receives, and a lost copy
				// is transmitted (already counted) but not delivered. Neither
				// marks the peer seen, so a copy arriving over another overlay
				// edge may still get through.
				if alive != nil && int(to) < len(alive) && !alive[to] {
					deadDrops++
					continue
				}
				if lossy && plane.MessageLossAt(salt, int(to), c.attempt(c.loss, to)) {
					lossDrops++
					continue
				}
				// Bounded-capacity ingress: a transmitted (counted) copy that
				// the destination's queue sheds is dropped unprocessed. The peer
				// is not marked seen — a later-ring copy may find room.
				if capOn && !cp.Admit(salt, int(to), c.attempt(c.admits, to), copyTTL, ttl) {
					continue
				}
			}
			seen[to] = epoch
			if capture {
				c.pathParent[to], c.pathEpoch[to] = from[fi], epoch
			}
			reached++
			// The peer has processed the query; whether its index is probed
			// changes no count above.
			if probeAll || (cand != nil && cand[to] == epoch) {
				c.answer(res, int(to), hops)
			}
			// Forward if TTL remains; leaves don't forward in two-tier
			// Gnutella (only ultrapeers relay).
			if copyTTL <= 1 || (relay != nil && !relay[to]) {
				continue
			}
			nbs := nw.Peers[to].Neighbors
			if !edgeGates {
				// The bare scan: every neighbour not yet processed gets a copy.
				// Each slot is written unconditionally and kept by advancing
				// the cursor, so the unpredictable test — was it reached
				// earlier in this very ring? — costs no branch.
				next = slices.Grow(next, len(nbs))
				buf, n := next[:cap(next)], len(next)
				for _, nb := range nbs {
					buf[n] = int32(nb)
					if seen[nb] != epoch {
						n++
					}
				}
				next = buf[:n]
			} else {
				// Last-hop QRP filtering: do not waste a message on a recipient
				// that would neither relay the query further (a two-tier leaf,
				// or any peer at the final TTL ring) nor match it per its route
				// table. Relaying recipients are never table-filtered — on a
				// flat network every peer holds a table, and filtering
				// mid-route would kill propagation rather than trim its last
				// hop. For two-tier networks the conditions coincide (only
				// non-relaying leaves carry tables), so deployed-shape results
				// are unchanged.
				for _, nb := range nbs {
					if seen[nb] == epoch {
						continue
					}
					if hoist.active && (copyTTL <= 2 || (relay != nil && !relay[nb])) {
						if hoist.blocks(nb) {
							qrpSkipped++
							continue
						}
					}
					if breakers && cp.Blocked(nb) {
						breakerSkips++
						continue
					}
					next = append(next, int32(nb))
				}
			}
			for capture && len(nextFrom) < len(next) {
				nextFrom = append(nextFrom, to) // every copy `to` just sent
			}
		}
		if tracing {
			perRing = append(perRing, reached-ringStart)
		}
		frontier, next = next, frontier[:0]
		if capture {
			from, nextFrom = nextFrom, from[:0]
		}
	}
	res.PeersReached = reached
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
		ob.probes.Add(int64(c.probes))
		ob.postings.Add(int64(c.ms.decoded))
		if len(c.cols) > 0 {
			ob.dense.Inc()
		}
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

// answer matches the flood's query at peer `to` and, on a match, appends
// its QueryHit: one allocation per answering peer, straight from the
// library entries the matched indexes name.
func (c *FloodCtx) answer(res *FloodResult, to, hops int) {
	var idx []int32
	if len(c.cols) > 0 {
		idx = c.matchColumns(to)
	} else {
		c.probes++
		idx = c.nw.Peers[to].matchIDs(c.qids, &c.ms)
	}
	if len(idx) == 0 {
		return
	}
	peer := c.nw.Peers[to]
	hit := Hit{PeerID: to, Hops: hops, Files: make([]gmsg.Result, len(idx))}
	for i, fi := range idx {
		f := &peer.Library[fi]
		hit.Files[i] = gmsg.Result{FileIndex: f.Index, FileSize: f.Size, FileName: f.Name}
	}
	res.Hits = append(res.Hits, hit)
	res.TotalResults += len(idx)
}

// matchColumns is matchIDs for an all-dense flood, read through the query
// terms' offset columns: a peer some column has no entry for lacks that
// term and is passed over without touching its index; the others' posting
// lists are read straight from the payload offsets and intersected as
// matchIDs intersects them.
func (c *FloodCtx) matchColumns(to int) []int32 {
	for _, col := range c.cols {
		if col[to] == 0 {
			return nil
		}
	}
	c.probes++
	ix := &c.nw.Peers[to].idx
	sel := c.ms.sel[:0]
	for _, col := range c.cols {
		e := col[to]
		sel = append(sel, ix.payload(e&^columnMulti, e&columnMulti != 0))
	}
	c.ms.sel = sel
	return c.ms.intersect()
}

// qrpHoist is the per-flood QRP forwarding decision: inactive when QRP is
// off or the query is a browse (always forward); otherwise the route
// matrix's holder numbers and the flood's pass mask, one bit per holder,
// set when the holder's table hits every query keyword (none set for a
// keywordless query, which no table matches).
type qrpHoist struct {
	active bool
	ord    []int32
	pass   []uint64
}

// blocks reports whether peer p pushed a route table the query misses.
func (h qrpHoist) blocks(p int) bool {
	o := h.ord[p]
	return o >= 0 && h.pass[o>>6]&(1<<(o&63)) == 0
}

// hoistQRPToks computes the flood-wide QRP state from the already-deduped
// token list and the IDs the flood resolved it to (ids[i] is toks[i]'s,
// NoTerm when unknown; unread for a keywordless query), reusing the
// context's slot and mask scratch. Known terms read their precomputed hash
// product from the dictionary; unknown query terms are still
// string-hashed — they can false-positive into a route table, and the
// forwarding decision must not depend on which path computed the slots.
// Checking deduped tokens is equivalent to checking every occurrence:
// duplicate occurrences test the same slot.
func (c *FloodCtx) hoistQRPToks(criteria string, toks []string, ids []dict.TermID) qrpHoist {
	nw := c.nw
	q := nw.qrp
	if q == nil || criteria == BrowseCriteria {
		return qrpHoist{}
	}
	hs := c.qhash[:0]
	for i, tok := range toks {
		if id := ids[i]; id != dict.NoTerm {
			hs = append(hs, nw.dict.Slot(id, q.bits))
			continue
		}
		hs = append(hs, qrp.Hash(tok, q.bits))
	}
	c.qhash = hs
	c.qpass = q.pass(c.qpass, hs)
	return qrpHoist{active: true, ord: q.ord, pass: c.qpass}
}
