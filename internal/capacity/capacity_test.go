package capacity

import (
	"sync"
	"testing"
)

func mustPlane(t *testing.T, cfg Config, n int) *Plane {
	t.Helper()
	p, err := New(cfg, n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Unbounded, DropTail, RED, TTLAware} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"disabled", func(c *Config) { c.ServiceCostMs = 0 }, true},
		{"negative service cost", func(c *Config) { c.ServiceCostMs = -1 }, false},
		{"zero depth drop-tail", func(c *Config) { c.QueueDepth = 0 }, false},
		{"zero depth unbounded", func(c *Config) { c.QueueDepth = 0; c.Policy = Unbounded }, true},
		{"negative commit every", func(c *Config) { c.CommitEvery = -1 }, false},
		{"breaker zero window", func(c *Config) { c.Breakers = true; c.BreakerWindow = 0 }, false},
		{"breaker trip over window", func(c *Config) { c.Breakers = true; c.BreakerTrip = 17 }, false},
		{"breaker zero cooldown", func(c *Config) { c.Breakers = true; c.BreakerCooldownS = 0 }, false},
		{"breaker ok", func(c *Config) { c.Breakers = true }, true},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(1)
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}

func TestNilAndDisabledPlanesAreInert(t *testing.T) {
	var nilP *Plane
	disabled := mustPlane(t, Config{}, 4)
	for _, p := range []*Plane{nilP, disabled} {
		if p.Enabled() {
			t.Fatal("inert plane reports enabled")
		}
		if !p.Admit(1, 0, 0, 1, 3) || !p.AdmitPing(1, 0) {
			t.Fatal("inert plane shed a message")
		}
		if p.Blocked(0) {
			t.Fatal("inert plane blocked a peer")
		}
		p.Advance(100)
		p.Commit(100)
		p.AddSuppressed(0)
		if p.QueueDelayS(0) != 0 || p.Depth(0) != 0 {
			t.Fatal("inert plane has backlog")
		}
		if p.Stats() != (Stats{}) {
			t.Fatal("inert plane accumulated stats")
		}
	}
}

func TestDropTailShedsAtDepth(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.QueueDepth = 4
	p := mustPlane(t, cfg, 2)
	// Fill peer 0 to exactly its depth in one committed phase.
	for i := 0; i < 4; i++ {
		if !p.Admit(99, 0, uint64(i), 3, 3) {
			t.Fatalf("admit %d rejected below committed depth", i)
		}
	}
	p.Commit(0)
	if d := p.Depth(0); d != 4 {
		t.Fatalf("depth = %d, want 4", d)
	}
	if p.Admit(100, 0, 0, 3, 3) {
		t.Fatal("drop-tail admitted at full depth")
	}
	if !p.Admit(100, 1, 0, 3, 3) {
		t.Fatal("drop-tail shed an empty peer")
	}
	p.Commit(0)
	st := p.Stats()
	if st.Enqueued != 5 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 5 enqueued / 1 shed", st)
	}
}

// TestUnboundedShedsNothing: an enabled plane under the unbounded policy
// accounts every message and never rejects one, however far past
// QueueDepth the backlog grows — what makes it the cost-of-modelling
// baseline the benchmark's capacity ablation row measures.
func TestUnboundedShedsNothing(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Policy = Unbounded
	cfg.Breakers = false
	cfg.QueueDepth = 4
	p := mustPlane(t, cfg, 2)
	for phase := 0; phase < 3; phase++ {
		for i := 0; i < 40; i++ {
			if !p.Admit(uint64(phase), 0, uint64(i), 1+i%3, 3) {
				t.Fatalf("unbounded plane shed message %d of phase %d", i, phase)
			}
		}
		p.Commit(0)
	}
	if st := p.Stats(); st.Enqueued != 120 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 120 enqueued / 0 shed", st)
	}
	if d := p.Depth(0); d != 120 {
		t.Fatalf("depth = %d, want the whole backlog (120)", d)
	}
}

func TestREDRampsDeterministically(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.QueueDepth = 8
	cfg.Policy = RED
	p := mustPlane(t, cfg, 1)
	// Below half occupancy RED always admits.
	for i := 0; i < 3; i++ {
		if !p.Admit(1, 0, uint64(i), 3, 3) {
			t.Fatal("RED shed below min threshold")
		}
	}
	p.Commit(0)
	// At full occupancy RED always sheds.
	for i := 0; i < 5; i++ {
		p.Admit(2, 0, uint64(i), 3, 3)
	}
	p.Commit(0)
	if p.Depth(0) < 8 && p.Admit(3, 0, 0, 3, 3) {
		// fill the rest deterministically
		p.Commit(0)
	}
	for p.Depth(0) < 8 {
		p.Admit(4, 0, uint64(p.Depth(0)), 3, 3)
		p.Commit(0)
	}
	if p.Admit(5, 0, 0, 3, 3) {
		t.Fatal("RED admitted at full occupancy")
	}
	// Decisions in the ramp are pure functions of (seed, salt, to, n).
	q := mustPlane(t, cfg, 1)
	for i := 0; i < 5; i++ {
		q.Admit(9, 0, uint64(i), 3, 3)
	}
	q.Commit(0)
	r := mustPlane(t, cfg, 1)
	for i := 0; i < 5; i++ {
		r.Admit(9, 0, uint64(i), 3, 3)
	}
	r.Commit(0)
	if q.Stats() != r.Stats() {
		t.Fatalf("RED not deterministic: %+v vs %+v", q.Stats(), r.Stats())
	}
}

func TestTTLAwareFavorsFreshMessages(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.QueueDepth = 9
	cfg.Policy = TTLAware
	p := mustPlane(t, cfg, 1)
	for i := 0; i < 6; i++ {
		p.Admit(1, 0, uint64(i), 3, 3)
	}
	p.Commit(0)
	// Depth 6: allowance for ttl=1 is 9*1/3=3 -> shed; ttl=3 is 9 -> admit.
	if p.Admit(2, 0, 0, 1, 3) {
		t.Fatal("TTL-aware admitted a far (ttl=1) message over its allowance")
	}
	if !p.Admit(2, 0, 1, 3, 3) {
		t.Fatal("TTL-aware shed a fresh (full-TTL) message below depth")
	}
}

func TestAdvanceDrainsByServiceCost(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.QueueDepth = 16
	cfg.ServiceCostMs = 10000 // one message per 10 s
	p := mustPlane(t, cfg, 1)
	for i := 0; i < 10; i++ {
		p.Admit(1, 0, uint64(i), 3, 3)
	}
	p.Commit(0)
	if d := p.QueueDelayS(0); d != 100 {
		t.Fatalf("QueueDelayS = %d, want 100", d)
	}
	p.Advance(25) // 25 s -> 2 drained, 5 s carried
	if d := p.Depth(0); d != 8 {
		t.Fatalf("depth after 25s = %d, want 8", d)
	}
	p.Advance(30) // +5 s -> carry completes a third message
	if d := p.Depth(0); d != 7 {
		t.Fatalf("depth after 30s = %d, want 7", d)
	}
	p.Advance(10_000)
	if d := p.Depth(0); d != 0 {
		t.Fatalf("depth after long drain = %d, want 0", d)
	}
	if st := p.Stats(); st.Served != 10 {
		t.Fatalf("served = %d, want 10", st.Served)
	}
}

// breakerCfg returns a small 3-of-4 breaker plane for state-machine tests.
func breakerCfg() Config {
	cfg := DefaultConfig(7)
	cfg.QueueDepth = 1
	cfg.Breakers = true
	cfg.BreakerWindow = 4
	cfg.BreakerTrip = 3
	cfg.BreakerCooldownS = 60
	return cfg
}

// reject feeds one committed rejected send to peer 0 (queue full -> shed).
func reject(p *Plane, now int64, salt uint64) {
	p.Admit(salt, 0, 0, 3, 3)
	p.Commit(now)
}

func TestBreakerOpensAtExactlyNOfM(t *testing.T) {
	p := mustPlane(t, breakerCfg(), 1)
	// Fill the single queue slot so every further send rejects.
	p.Admit(0, 0, 0, 3, 3)
	p.Commit(0)
	reject(p, 0, 1)
	reject(p, 0, 2)
	if p.Blocked(0) {
		t.Fatal("breaker open after 2 of 3 rejects")
	}
	reject(p, 0, 3)
	if !p.Blocked(0) {
		t.Fatal("breaker closed after N=3 rejects in window")
	}
	if st := p.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
}

func TestBreakerWindowForgetsOldRejects(t *testing.T) {
	cfg := breakerCfg()
	cfg.QueueDepth = 8
	p := mustPlane(t, cfg, 1)
	// Two rejects (force by filling first), then accepts push them out of
	// the M=4 ring before a third reject arrives.
	for i := 0; i < 8; i++ {
		p.Admit(0, 0, uint64(i), 3, 3)
	}
	p.Commit(0)
	reject(p, 0, 1)
	reject(p, 0, 2)
	p.Advance(80_000) // drain fully
	p.Admit(3, 0, 0, 3, 3)
	p.Commit(80_000)
	p.Admit(4, 0, 0, 3, 3)
	p.Commit(80_000)
	p.Admit(5, 0, 0, 3, 3)
	p.Commit(80_000)
	// Ring now holds [rej rej acc acc] -> [acc acc acc ...]; one more
	// reject is 1-of-4, not 3-of-4.
	for i := 0; i < 8; i++ {
		p.Admit(6, 0, uint64(100+i), 3, 3)
	}
	p.Commit(80_000)
	reject(p, 80_000, 7)
	if p.Blocked(0) {
		t.Fatal("breaker opened on stale rejects outside the window")
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	p := mustPlane(t, breakerCfg(), 1)
	p.Admit(0, 0, 0, 3, 3)
	p.Commit(0)
	reject(p, 0, 1)
	reject(p, 0, 2)
	reject(p, 0, 3)
	if !p.Blocked(0) {
		t.Fatal("breaker should be open")
	}
	// Before the cooldown the breaker stays open.
	p.Advance(59)
	if !p.Blocked(0) {
		t.Fatal("breaker half-opened before cooldown")
	}
	// Cooldown elapses -> half-open, probes flow again. The long drain also
	// empties the queue, so the probe is accepted and the breaker closes.
	p.Advance(61)
	if p.Blocked(0) {
		t.Fatal("breaker still blocked after cooldown")
	}
	p.Admit(4, 0, 0, 3, 3)
	p.Commit(61)
	if p.Blocked(0) {
		t.Fatal("breaker re-opened on an accepted probe")
	}
	if st := p.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
}

func TestBreakerHalfOpenRejectReopens(t *testing.T) {
	// Service slower than the cooldown, so the queue is still full when the
	// breaker half-opens and the probe sheds.
	cfg := breakerCfg()
	cfg.ServiceCostMs = 1_000_000
	p := mustPlane(t, cfg, 1)
	p.Admit(0, 0, 0, 3, 3)
	p.Commit(0)
	reject(p, 0, 1)
	reject(p, 0, 2)
	reject(p, 0, 3)
	if !p.Blocked(0) {
		t.Fatal("breaker should be open")
	}
	p.Advance(61) // cooldown elapsed -> half-open; queue still full
	if p.Blocked(0) {
		t.Fatal("breaker still blocked after cooldown")
	}
	reject(p, 61, 4)
	if !p.Blocked(0) {
		t.Fatal("half-open probe reject did not re-open the breaker")
	}
	if st := p.Stats(); st.BreakerOpens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2", st.BreakerOpens)
	}
}

func TestSuppressedTally(t *testing.T) {
	p := mustPlane(t, breakerCfg(), 1)
	p.AddSuppressed(5)
	p.AddSuppressed(2)
	if st := p.Stats(); st.BreakerSuppressed != 7 {
		t.Fatalf("BreakerSuppressed = %d, want 7", st.BreakerSuppressed)
	}
}

// TestConcurrentAdmitIsOrderInvariant pins the worker-invariance claim at
// the plane level: the same admission set split across goroutines in any
// interleaving folds to identical committed state.
func TestConcurrentAdmitIsOrderInvariant(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.QueueDepth = 8
	cfg.Policy = RED
	run := func(workers int) Stats {
		p := mustPlane(t, cfg, 16)
		var wg sync.WaitGroup
		per := 64 / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w * per; i < (w+1)*per; i++ {
					p.Admit(uint64(i/4), i%16, uint64(i), 2, 3)
				}
			}(w)
		}
		wg.Wait()
		p.Commit(0)
		return p.Stats()
	}
	if a, b := run(1), run(8); a != b {
		t.Fatalf("stats differ across workers: %+v vs %+v", a, b)
	}
}
