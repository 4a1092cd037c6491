package main

import (
	"fmt"
	"math"
	"sort"

	"querycentric/internal/gnet"
)

// digest is an FNV-1a accumulator over simulated statistics. Everything
// fed to it is a function of (code, seed) only, never of host time.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) ints(vs ...int) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) str(s string) {
	d.ints(len(s))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
}

func (d *digest) sum() uint64 { return d.h }

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// naiveFlood is the benchmark's own reference for a plain flood (no QRP,
// faults or capacity): a fresh seen map, a slice frontier, string matching
// through Peer.Match — the algorithm TestFloodMatchesNaiveReference pins in
// internal/gnet, minus the wire codec. Messages follows the documented
// counting rule: a copy is counted when it is put on a connection, and is
// not sent to a peer the sender already knows processed the query.
func naiveFlood(nw *gnet.Network, origin int, criteria string, ttl int) (messages, reached int, hits map[int][]uint32) {
	seen := map[int]bool{origin: true}
	hits = map[int][]uint32{}
	twoTier := nw.Config.UltrapeerFrac > 0
	var frontier []int
	for _, nb := range nw.Peers[origin].Neighbors {
		frontier = append(frontier, nb)
		messages++
	}
	for left := ttl; len(frontier) > 0; left-- {
		var next []int
		for _, to := range frontier {
			if seen[to] {
				continue
			}
			seen[to] = true
			reached++
			p := nw.Peers[to]
			for _, f := range p.Match(criteria) {
				hits[to] = append(hits[to], f.Index)
			}
			if left <= 1 || (twoTier && !p.Ultrapeer) {
				continue
			}
			for _, nb := range p.Neighbors {
				if !seen[nb] {
					next = append(next, nb)
					messages++
				}
			}
		}
		frontier = next
	}
	return messages, reached, hits
}

// agreesWithNaive compares one measured flood against the reference on
// message count, peers reached and the hit set (answering peers and the
// file indexes each returned).
func agreesWithNaive(nw *gnet.Network, origin int, criteria string, ttl int, fr *gnet.FloodResult) error {
	msgs, reached, hits := naiveFlood(nw, origin, criteria, ttl)
	if fr.Messages != msgs || fr.PeersReached != reached {
		return fmt.Errorf("flood from %d %q: messages/reached %d/%d, reference %d/%d",
			origin, criteria, fr.Messages, fr.PeersReached, msgs, reached)
	}
	if len(fr.Hits) != len(hits) {
		return fmt.Errorf("flood from %d %q: %d answering peers, reference %d", origin, criteria, len(fr.Hits), len(hits))
	}
	for _, h := range fr.Hits {
		want := hits[h.PeerID]
		if len(want) != len(h.Files) {
			return fmt.Errorf("flood from %d %q: peer %d returned %d files, reference %d", origin, criteria, h.PeerID, len(h.Files), len(want))
		}
		got := make([]uint32, len(h.Files))
		for i, f := range h.Files {
			got[i] = f.FileIndex
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("flood from %d %q: peer %d file set differs from reference", origin, criteria, h.PeerID)
			}
		}
	}
	return nil
}

// modelMessages predicts the mean messages of one TTL-bounded plain flood
// on a two-tier network, averaged over every peer as origin, from the
// degree sequence alone: the degree/TTL ring recurrence of the OPNET
// flooding analysis (PAPERS.md), extended with this repository's rules —
// leaves never forward; a forwarder skips neighbours it has already seen
// processed (earlier rings and earlier in its own ring), while copies that
// race to the same unprocessed peer are all transmitted and counted.
//
// Mean-field per tier: a new ultrapeer reached over an ultrapeer link has
// the edge-biased degrees (Σa²/Σa ultrapeer links, Σab/Σa leaf links); its
// copies land uniformly on the peers of each tier that were unprocessed
// when it forwarded, and the distinct peers reached follow the occupancy
// (balls-in-bins) expectation.
func modelMessages(nw *gnet.Network, ttl int) float64 {
	var nu, nl float64 // ultrapeers, leaves
	var sa, sb, saa, sab, sbb, sc float64
	for _, p := range nw.Peers {
		if !p.Ultrapeer {
			nl++
			sc += float64(len(p.Neighbors))
			continue
		}
		nu++
		var a, b float64
		for _, nb := range p.Neighbors {
			if nw.Peers[nb].Ultrapeer {
				a++
			} else {
				b++
			}
		}
		sa, sb, saa, sab, sbb = sa+a, sb+b, saa+a*a, sab+a*b, sbb+b*b
	}
	if nu == 0 || nl == 0 || sa == 0 || sb == 0 {
		return 0
	}
	// tierFlood runs the recurrence from one origin class: newU/newL peers
	// processed at ring 1, whose ultrapeers forward over fa other ultrapeer
	// links and fb other leaf links; seenU/seenL count the origin.
	tierFlood := func(newU, newL, fa, fb, seenU, seenL float64) float64 {
		msgs := newU + newL
		for ring := 1; ring < ttl && newU > 0; ring++ {
			// The ring's i-th forwarder has seen i ring-mates processed.
			midU := math.Min(seenU+newU/2, nu)
			midL := math.Min(seenL+newL/2, nl)
			toU := newU * fa * (1 - midU/nu)
			toL := newU * fb * (1 - midL/nl)
			msgs += toU + toL
			seenU, seenL = seenU+newU, seenL+newL
			// Copies addressed to ring-mates are dropped on arrival; the
			// rest fall on the peers no ring has processed yet.
			newU = occupancy(nu-seenU, toU*share(nu-seenU, nu-midU))
			newL = occupancy(nl-seenL, toL*share(nl-seenL, nl-midL))
			// Every later ring's ultrapeers arrived over an ultrapeer link.
			fa, fb = saa/sa-1, sab/sa
		}
		return msgs
	}
	// Ultrapeer origin: mean degrees at ring 1; ring-1 ultrapeers were
	// reached over an ultrapeer link.
	fromUltra := tierFlood(sa/nu, sb/nu, saa/sa-1, sab/sa, 1, 0)
	// Leaf origin: its ~3 ultrapeers are leaf-link biased and skip the
	// origin among their leaves.
	fromLeaf := tierFlood(sc/nl, 0, sab/sb, sbb/sb-1, 0, 1)
	return (nu*fromUltra + nl*fromLeaf) / (nu + nl)
}

// share is part/whole clamped to [0,1].
func share(part, whole float64) float64 {
	if part <= 0 || whole <= 0 {
		return 0
	}
	return math.Min(part/whole, 1)
}

// occupancy is the expected number of distinct bins hit when `balls` land
// uniformly on `bins`.
func occupancy(bins, balls float64) float64 {
	if bins <= 0 || balls <= 0 {
		return 0
	}
	return bins * (1 - math.Exp(-balls/bins))
}
