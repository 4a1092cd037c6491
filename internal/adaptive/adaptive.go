// Package adaptive is the paper's constructive answer: a query-centric
// overlay that watches its own query stream and adapts both wiring and
// placement to it. Two mechanisms run on a shared observation plane:
//
//   - Rewiring. Each peer keeps a bounded candidate list of peers that
//     answered its recent queries (learned from QueryHit answer paths) and
//     periodically swaps its least-useful static edge — the neighbor that
//     forwarded the fewest answers — for its best candidate, under degree
//     caps. Repeat queries then start with one-hop probes to likely
//     answerers before paying for a flood.
//
//   - Replication. A windowed popularity sketch (obs.StreamSketch) tracks
//     the hot objects in the stream; the hot-but-rare ones — popular yet
//     frequently missed — receive new replicas each round, allocated by
//     internal/replication and placed by a configurable scheme (owner,
//     path, random, or square-root budgets).
//
// Both mechanisms are driven by QUERY popularity, never file popularity —
// the distinction the paper shows deployed overlays get wrong.
//
// Determinism discipline: measurement batches fan out over
// internal/parallel with per-query streams derived per the
// strategy.WorkloadStream contract, and their observations are folded in
// query order; all adaptation (topology and library mutation, sketch
// decay) runs single-threaded between batches on per-(round, peer)
// derived streams. Results are therefore byte-identical at any -workers
// value, and a System with AdaptInterval zero is inert: it issues exactly
// the floods a static network would, with identical results.
package adaptive

import (
	"fmt"

	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/parallel"
	"querycentric/internal/replication"
	"querycentric/internal/rng"
	"querycentric/internal/strategy"
)

// Scheme selects where new replicas are installed.
type Scheme string

// The replica-placement schemes. Owner installs at recent successful
// requesters (the classic "owner replication" of Gnutella downloads), Path
// along the reverse answer path (Freenet-style), Random at uniformly drawn
// peers, and Sqrt at random peers under a square-root (rather than
// proportional) budget split — the Cohen–Shenker optimum.
const (
	SchemeOwner  Scheme = "owner"
	SchemePath   Scheme = "path"
	SchemeRandom Scheme = "random"
	SchemeSqrt   Scheme = "sqrt"
)

// Schemes lists the valid placement schemes, for flag validation.
func Schemes() []string {
	return []string{string(SchemeOwner), string(SchemePath), string(SchemeRandom), string(SchemeSqrt)}
}

// Config shapes one adaptive overlay system.
type Config struct {
	// Seed drives the adaptation streams (rewire tie-breaks, random
	// placement). The workload stream is separate — RunWorkload's seed —
	// so the same system state can replay different workloads.
	Seed uint64
	// TTL is the flood time-to-live for every query.
	TTL int
	// AdaptInterval is the number of queries per measurement batch; one
	// adaptation round runs between batches. Zero disables adaptation
	// entirely — the system becomes an inert static-flood arm.
	AdaptInterval int
	// RewireBudget caps topology swaps per adaptation round (0 disables
	// rewiring).
	RewireBudget int
	// ReplicateBudget caps replica installs per adaptation round (0
	// disables replication).
	ReplicateBudget int
	// ReplScheme selects replica placement.
	ReplScheme Scheme
	// CandidateList bounds each peer's learned-answerer list.
	CandidateList int
	// ProbeCandidates is how many candidates a querying peer probes (one
	// message each) before falling back to a flood.
	ProbeCandidates int
	// HotListSize is the popularity sketch capacity.
	HotListSize int
	// MaxDegree and MinDegree bound peer degrees under rewiring: a swap
	// never raises a peer past MaxDegree or drops one below MinDegree.
	MaxDegree int
	// MinDegree is the floor a dropped neighbor must keep.
	MinDegree int
	// Workers bounds batch parallelism (0 = GOMAXPROCS).
	Workers int
	// Label names the arm for the caller's own bookkeeping; the system
	// never reads it. It stays because the benchmark's five-arm workload
	// (benchmarks/wl_fivearm.go) sets it.
	Label string
}

// DefaultConfig returns the tuning used by the query-centric experiment.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		TTL:             3,
		AdaptInterval:   64,
		RewireBudget:    8,
		ReplicateBudget: 8,
		ReplScheme:      SchemeSqrt,
		CandidateList:   6,
		ProbeCandidates: 2,
		HotListSize:     32,
		MaxDegree:       8,
		MinDegree:       2,
	}
}

// Object is one searchable object in the workload's universe. Holders
// optionally seeds the system's knowledge of existing replica locations
// (peer IDs) so replication never installs a duplicate at a known holder;
// holders learned from answers are added as the stream unfolds.
type Object struct {
	Name    string
	Size    uint32
	Holders []int32
}

// objState is the per-object observation fold: recent successful
// requesters (newest first), the last answer path, and known holders.
type objState struct {
	recentOrigins []int32
	lastPath      []int32
	holders       map[int32]struct{}
}

const recentOriginCap = 8

// System is an adaptive overlay over one gnet network. A System is not
// safe for concurrent use; RunWorkload manages its own internal
// parallelism.
type System struct {
	nw      *gnet.Network
	objects []Object
	cfg     Config

	sketch *obs.StreamSketch
	cand   [][]int32         // per-peer candidate lists, best-first
	credit []map[int]float64 // per-peer answer credit by neighbor, lazily allocated
	objs   []objState

	round int
	log   []RewireDecision
	acc   accum

	rewireBase *rng.Source
	replBase   *rng.Source

	// Optional instrumentation (nil-safe obs handles).
	mRounds, mRewires, mReplicas, mProbeHits *obs.Counter
}

// accum is one RunWorkload call's running aggregate.
type accum struct {
	queries, found, probeHits int
	messages, hopsSum         int64
	rewires, replicas         int
}

// New builds an adaptive system over the network, indexing it first
// (gnet.Network.BuildIndexes) so a hand-assembled network floods with its
// holder index. The objects slice is the workload universe: RunWorkload's
// pick function returns indices into it.
func New(nw *gnet.Network, objects []Object, cfg Config) (*System, error) {
	if nw == nil || len(nw.Peers) == 0 {
		return nil, fmt.Errorf("adaptive: empty network")
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("adaptive: no objects")
	}
	if cfg.TTL < 1 {
		return nil, fmt.Errorf("adaptive: TTL must be at least 1, got %d", cfg.TTL)
	}
	if cfg.AdaptInterval < 0 || cfg.RewireBudget < 0 || cfg.ReplicateBudget < 0 ||
		cfg.CandidateList < 0 || cfg.ProbeCandidates < 0 {
		return nil, fmt.Errorf("adaptive: negative budget or capacity")
	}
	if cfg.AdaptInterval > 0 {
		switch cfg.ReplScheme {
		case SchemeOwner, SchemePath, SchemeRandom, SchemeSqrt:
		default:
			return nil, fmt.Errorf("adaptive: unknown replica scheme %q", cfg.ReplScheme)
		}
		if cfg.RewireBudget > 0 {
			if cfg.MinDegree < 1 {
				return nil, fmt.Errorf("adaptive: MinDegree must be at least 1, got %d", cfg.MinDegree)
			}
			if cfg.MaxDegree < cfg.MinDegree {
				return nil, fmt.Errorf("adaptive: MaxDegree %d below MinDegree %d", cfg.MaxDegree, cfg.MinDegree)
			}
		}
	}
	// The build resolves its own worker count: the dictionary and the
	// holder index shard by it, so cfg.Workers would make
	// parallel_map_units_total depend on the worker bound.
	if err := nw.BuildIndexes(0); err != nil {
		return nil, fmt.Errorf("adaptive: %w", err)
	}
	hot := cfg.HotListSize
	if hot < 1 {
		hot = 1
	}
	s := &System{
		nw:         nw,
		objects:    objects,
		cfg:        cfg,
		sketch:     obs.NewStreamSketch(hot),
		cand:       make([][]int32, len(nw.Peers)),
		credit:     make([]map[int]float64, len(nw.Peers)),
		objs:       make([]objState, len(objects)),
		rewireBase: rng.NewNamed(cfg.Seed, "adaptive/rewire"),
		replBase:   rng.NewNamed(cfg.Seed, "adaptive/replicate"),
	}
	for i, o := range objects {
		if o.Name == "" {
			return nil, fmt.Errorf("adaptive: object %d has no name", i)
		}
		if len(o.Holders) > 0 {
			s.objs[i].holders = make(map[int32]struct{}, len(o.Holders))
			for _, h := range o.Holders {
				s.objs[i].holders[h] = struct{}{}
			}
		}
	}
	return s, nil
}

// Instrument attaches counters for the system's adaptation activity. A nil
// registry detaches (the default): every handle is nil-safe.
func (s *System) Instrument(reg *obs.Registry) {
	s.mRounds = reg.Counter("adaptive_rounds_total")
	s.mRewires = reg.Counter("adaptive_rewires_total")
	s.mReplicas = reg.Counter("adaptive_replicas_total")
	s.mProbeHits = reg.Counter("adaptive_probe_hits_total")
}

// RewireDecision records one topology swap: at round Round, Peer dropped
// its edge to Dropped and connected to Added (-1 when the corresponding
// half did not happen).
type RewireDecision struct {
	Round   int
	Peer    int
	Dropped int
	Added   int
}

// RewireLog returns every topology swap performed over the system's
// lifetime, in decision order: the convergence oracle tests pin.
func (s *System) RewireLog() []RewireDecision {
	return append([]RewireDecision(nil), s.log...)
}

// inert reports whether the system is in the static (no adaptation) mode.
func (s *System) inert() bool { return s.cfg.AdaptInterval <= 0 }

// RunWorkload issues queries whose origins and targets follow the
// strategy.WorkloadStream derivation, in batches of AdaptInterval with one
// adaptation round between consecutive batches; statistics cover this call
// only while adapted state (candidate lists, sketch, topology, replicas)
// persists across calls — run a warmup workload, then a measured one, to
// see steady-state behavior.
func (s *System) RunWorkload(queries int, pick func(r *rng.Source) int, seed uint64) (*strategy.Stats, error) {
	if queries < 1 {
		return nil, fmt.Errorf("adaptive: queries must be positive, got %d", queries)
	}
	s.acc = accum{}
	base := strategy.WorkloadStream(seed)
	interval := s.cfg.AdaptInterval
	if interval <= 0 {
		interval = queries
	}
	// One pool serves every batch of the call: its workers and their
	// flood contexts outlive the adaptation rounds between batches.
	pool := parallel.NewPool(min(parallel.Workers(s.cfg.Workers), interval), s.newBatchScratch)
	defer pool.Close()
	for start := 0; start < queries; start += interval {
		count := interval
		if start+count > queries {
			count = queries - start
		}
		if err := s.foldBatch(parallel.MapOn(pool, count, s.batchQuery(base, start, pick))); err != nil {
			return nil, err
		}
		if !s.inert() && start+count < queries {
			s.AdaptRound()
		}
	}
	return s.takeStats(), nil
}

// takeStats snapshots and resets the running aggregate.
func (s *System) takeStats() *strategy.Stats {
	a := s.acc
	s.acc = accum{}
	st := &strategy.Stats{
		Queries:  a.queries,
		Rewires:  a.rewires,
		Replicas: a.replicas,
	}
	if a.queries > 0 {
		st.Success = float64(a.found) / float64(a.queries)
		st.MeanMessages = float64(a.messages) / float64(a.queries)
	}
	if a.found > 0 {
		st.ShortcutHits = float64(a.probeHits) / float64(a.found)
		st.MeanHops = float64(a.hopsSum) / float64(a.found)
	}
	return st
}

// queryRecord is one query's worker-side observation, folded in query
// order after the batch barrier.
type queryRecord struct {
	obj       int32
	origin    int32
	found     bool
	probeHit  bool
	localHit  bool
	messages  int
	hops      int
	results   int
	answerers []int32 // nearest hit peers, nearest first
	path      []int32 // answer path of the nearest hit (origin..answerer)
}

type batchScratch struct {
	ctx *gnet.FloodCtx
}

// RunBatch issues queries [start, start+count) of the workload in parallel
// and folds their observations in query order. Exposed (alongside
// AdaptRound) so an event engine can schedule measurement and adaptation
// as alternating simulated-time events; RunWorkload is the inline driver.
func (s *System) RunBatch(base *rng.Source, start, count int, pick func(r *rng.Source) int) error {
	return s.foldBatch(parallel.MapWith(s.cfg.Workers, count, s.newBatchScratch, s.batchQuery(base, start, pick)))
}

// capture reports whether queries record answer paths, which only the
// rewiring and replication a live system performs consume.
func (s *System) capture() bool {
	return !s.inert() && (s.cfg.RewireBudget > 0 || s.cfg.ReplicateBudget > 0)
}

// newBatchScratch builds one worker's scratch.
func (s *System) newBatchScratch() *batchScratch {
	sc := &batchScratch{ctx: s.nw.NewFloodCtx()}
	sc.ctx.SetPathCapture(s.capture())
	return sc
}

// batchQuery runs query start+i of the workload on a worker.
func (s *System) batchQuery(base *rng.Source, start int, pick func(r *rng.Source) int) func(*batchScratch, int) (queryRecord, error) {
	capture := s.capture()
	return func(sc *batchScratch, i int) (queryRecord, error) {
		return s.runQuery(sc, base, start+i, pick, capture)
	}
}

// foldBatch folds a batch's observations in query order.
func (s *System) foldBatch(recs []queryRecord, err error) error {
	if err != nil {
		return err
	}
	for i := range recs {
		s.fold(&recs[i])
	}
	return nil
}

// runQuery executes one query on a worker: local check, candidate probes,
// then flood. All draws come from the query's derived stream in a fixed
// order, and all shared state read here (candidate lists, libraries,
// topology) is frozen for the duration of the batch.
func (s *System) runQuery(sc *batchScratch, base *rng.Source, qi int, pick func(r *rng.Source) int, capture bool) (queryRecord, error) {
	r := strategy.QueryStream(base, qi)
	n := len(s.nw.Peers)
	origin := r.Intn(n)
	obj := pick(r)
	if obj < 0 || obj >= len(s.objects) {
		return queryRecord{}, fmt.Errorf("adaptive: pick returned object %d of %d", obj, len(s.objects))
	}
	criteria := s.objects[obj].Name
	rec := queryRecord{obj: int32(obj), origin: int32(origin)}

	if !s.inert() {
		// A peer does not query the network for an object it already holds
		// (the payoff of owner replication).
		if got := s.nw.Peers[origin].Match(criteria); len(got) > 0 {
			rec.found, rec.localHit = true, true
			rec.results = len(got)
			return rec, nil
		}
		// Probe learned answerers — one message each — before flooding.
		cands := s.cand[origin]
		for j := 0; j < len(cands) && j < s.cfg.ProbeCandidates; j++ {
			rec.messages++
			if got := s.nw.Peers[cands[j]].Match(criteria); len(got) > 0 {
				rec.found, rec.probeHit = true, true
				rec.hops = 1
				rec.results = len(got)
				rec.answerers = []int32{cands[j]}
				return rec, nil
			}
		}
	}

	res, err := sc.ctx.Flood(origin, criteria, s.cfg.TTL, r)
	if err != nil {
		return queryRecord{}, err
	}
	rec.messages += res.Messages
	rec.results += res.TotalResults
	if len(res.Hits) == 0 {
		return rec, nil
	}
	rec.found = true
	// Nearest answer first: hits arrive in flood (ring) order, so sorting
	// by (hops, peer) is a stable refinement of an already deterministic
	// order.
	best := 0
	for i, h := range res.Hits {
		if h.Hops < res.Hits[best].Hops || (h.Hops == res.Hits[best].Hops && h.PeerID < res.Hits[best].PeerID) {
			best = i
		}
	}
	rec.hops = res.Hits[best].Hops
	rec.answerers = append(rec.answerers, int32(res.Hits[best].PeerID))
	for _, h := range res.Hits {
		if h.PeerID != res.Hits[best].PeerID && len(rec.answerers) < s.cfg.CandidateList {
			rec.answerers = append(rec.answerers, int32(h.PeerID))
		}
	}
	if capture {
		rec.path = append(rec.path, int32sOf(sc.ctx.AnswerPath(res.Hits[best].PeerID))...)
	}
	return rec, nil
}

func int32sOf(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// fold merges one query's observation into the system state. Runs
// single-threaded, in query order.
func (s *System) fold(rec *queryRecord) {
	s.acc.queries++
	s.acc.messages += int64(rec.messages)
	if rec.found {
		s.acc.found++
		s.acc.hopsSum += int64(rec.hops)
		if rec.probeHit {
			s.acc.probeHits++
			s.mProbeHits.Inc()
		}
	}
	if s.inert() {
		return
	}
	s.sketch.Observe(rec.obj, rec.found, rec.results)
	for _, a := range rec.answerers {
		s.addCandidate(int(rec.origin), a)
	}
	o := &s.objs[rec.obj]
	if rec.found && !rec.localHit {
		for _, a := range rec.answerers {
			if o.holders == nil {
				o.holders = map[int32]struct{}{}
			}
			o.holders[a] = struct{}{}
		}
		o.recentOrigins = pushFront(o.recentOrigins, rec.origin, recentOriginCap)
	}
	if len(rec.path) >= 2 {
		o.lastPath = rec.path
		// Credit the neighbor that forwarded the answer back to the origin.
		first := int(rec.path[1])
		m := s.credit[rec.origin]
		if m == nil {
			m = map[int]float64{}
			s.credit[rec.origin] = m
		}
		m[first]++
	}
}

// addCandidate inserts answerer a into peer's candidate list, move-to-front
// on re-observation, capped at CandidateList. Current neighbors and the
// peer itself are not candidates.
func (s *System) addCandidate(peer int, a int32) {
	if s.cfg.CandidateList == 0 || int(a) == peer {
		return
	}
	for _, nb := range s.nw.Peers[peer].Neighbors {
		if int32(nb) == a {
			return
		}
	}
	s.cand[peer] = pushFront(s.cand[peer], a, s.cfg.CandidateList)
}

// pushFront prepends v (move-to-front if present), capped at max.
func pushFront(xs []int32, v int32, max int) []int32 {
	for i, x := range xs {
		if x == v {
			copy(xs[1:i+1], xs[:i])
			xs[0] = v
			return xs
		}
	}
	xs = append(xs, 0)
	copy(xs[1:], xs)
	xs[0] = v
	if len(xs) > max {
		xs = xs[:max]
	}
	return xs
}

// AdaptRound runs one single-threaded adaptation round — rewiring, then
// replication, then decay — and returns the number of swaps and installs
// performed. Callers must not run it concurrently with RunBatch (the
// phase-alternation contract of gnet topology and library mutation).
func (s *System) AdaptRound() (rewires, replicas int) {
	s.round++
	s.mRounds.Inc()
	if s.cfg.RewireBudget > 0 {
		rewires = s.rewireRound()
	}
	if s.cfg.ReplicateBudget > 0 {
		replicas = s.replicateRound()
	}
	s.sketch.Decay()
	for _, m := range s.credit {
		for k := range m {
			m[k] /= 2
			if m[k] < 0.25 {
				delete(m, k)
			}
		}
	}
	s.acc.rewires += rewires
	s.acc.replicas += replicas
	s.mRewires.Add(int64(rewires))
	s.mReplicas.Add(int64(replicas))
	return rewires, replicas
}

// rewireRound performs up to RewireBudget swaps: peers in ascending ID
// order swap their least-credited droppable neighbor for their best
// eligible candidate. Tie-breaks among equally worthless neighbors draw
// from the per-(round, peer) derived stream, so the decision sequence is a
// pure function of (seed, round, folded observations).
func (s *System) rewireRound() int {
	swaps := 0
	for peer := 0; peer < len(s.nw.Peers) && swaps < s.cfg.RewireBudget; peer++ {
		cands := s.cand[peer]
		if len(cands) == 0 {
			continue
		}
		add := -1
		for _, c := range cands {
			if len(s.nw.Peers[c].Neighbors)+1 <= s.cfg.MaxDegree && !s.connected(peer, int(c)) {
				add = int(c)
				break
			}
		}
		if add < 0 {
			continue
		}
		// Least-credited neighbor that can afford to lose the edge.
		var ties []int
		worst := -1.0
		for _, nb := range s.nw.Peers[peer].Neighbors {
			if nb == add || len(s.nw.Peers[nb].Neighbors)-1 < s.cfg.MinDegree {
				continue
			}
			cr := s.credit[peer][nb]
			switch {
			case worst < 0 || cr < worst:
				worst, ties = cr, ties[:0]
				ties = append(ties, nb)
			case cr == worst:
				ties = append(ties, nb)
			}
		}
		if len(ties) == 0 {
			continue
		}
		pr := s.rewireBase.Derive(fmt.Sprintf("%d/%d", s.round, peer))
		drop := ties[pr.Intn(len(ties))]
		if !s.nw.DisconnectPeers(peer, drop) {
			continue
		}
		if err := s.nw.ConnectPeers(peer, add); err != nil {
			// Undo rather than leave the peer short an edge; cannot happen
			// given the checks above, kept as an invariant guard.
			s.nw.ConnectPeers(peer, drop)
			continue
		}
		s.dropCandidate(peer, int32(add))
		delete(s.credit[peer], drop)
		s.log = append(s.log, RewireDecision{Round: s.round, Peer: peer, Dropped: drop, Added: add})
		swaps++
	}
	return swaps
}

func (s *System) connected(a, b int) bool {
	for _, nb := range s.nw.Peers[a].Neighbors {
		if nb == b {
			return true
		}
	}
	return false
}

func (s *System) dropCandidate(peer int, v int32) {
	xs := s.cand[peer]
	for i, x := range xs {
		if x == v {
			s.cand[peer] = append(xs[:i], xs[i+1:]...)
			return
		}
	}
}

// replicateRound installs up to ReplicateBudget new replicas of the
// hot-but-rare objects: sketch entries with at least one recent miss,
// hottest first, with the budget split by internal/replication
// (proportional for owner/path/random, square-root for sqrt) and placement
// per the configured scheme.
func (s *System) replicateRound() int {
	top := s.sketch.Top(s.cfg.HotListSize)
	rare := top[:0]
	for _, e := range top {
		if e.Hits < e.Count {
			rare = append(rare, e)
		}
	}
	if len(rare) == 0 {
		return 0
	}
	if len(rare) > s.cfg.ReplicateBudget {
		rare = rare[:s.cfg.ReplicateBudget]
	}
	strat := replication.Proportional
	if s.cfg.ReplScheme == SchemeSqrt {
		strat = replication.SquareRoot
	}
	pops := make([]float64, len(rare))
	for i, e := range rare {
		pops[i] = float64(e.Count)
	}
	counts, err := replication.Allocate(strat, pops, s.cfg.ReplicateBudget, len(s.nw.Peers))
	if err != nil {
		return 0 // degenerate inputs already clamped upstream; never fatal mid-round
	}
	installed := 0
	for i, e := range rare {
		installed += s.placeReplicas(int(e.Key), counts[i])
	}
	return installed
}

// placeReplicas installs up to k copies of object obj at scheme-selected
// peers, skipping known holders, and returns the number installed.
func (s *System) placeReplicas(obj, k int) int {
	o := &s.objs[obj]
	name, size := s.objects[obj].Name, s.objects[obj].Size
	rr := s.replBase.Derive(fmt.Sprintf("%d/%d", s.round, obj))
	install := func(peer int32) bool {
		if _, dup := o.holders[peer]; dup {
			return false
		}
		if err := s.nw.AddFile(int(peer), name, size); err != nil {
			return false
		}
		if o.holders == nil {
			o.holders = map[int32]struct{}{}
		}
		o.holders[peer] = struct{}{}
		return true
	}
	done := 0
	switch s.cfg.ReplScheme {
	case SchemeOwner:
		for _, origin := range o.recentOrigins {
			if done >= k {
				return done
			}
			if install(origin) {
				done++
			}
		}
	case SchemePath:
		// Walk the reverse answer path from the provider's side toward the
		// requester, the direction a fetched copy travels.
		for i := len(o.lastPath) - 2; i >= 0 && done < k; i-- {
			if install(o.lastPath[i]) {
				done++
			}
		}
	}
	// Random placement fills the remainder (and is the whole allocation
	// for the random and sqrt schemes). Attempts are bounded so a
	// nearly-everywhere-replicated object cannot stall the round.
	for tries := 0; done < k && tries < 8*k+8; tries++ {
		if install(int32(rr.Intn(len(s.nw.Peers)))) {
			done++
		}
	}
	return done
}
