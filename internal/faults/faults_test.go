package faults

import (
	"sync"
	"testing"
)

func TestZeroConfigIsInert(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero Config reports Enabled")
	}
	for _, p := range []*Plane{nil, New(Config{Seed: 99})} {
		for i := 0; i < 200; i++ {
			if p.DialTimeout(i) || p.HandshakeStall(i) || p.PeerDepart(i) || p.MessageLossAt(uint64(i), i, 0) {
				t.Fatal("inert plane injected a fault")
			}
			if _, fire := p.ConnReset(i); fire {
				t.Fatal("inert plane fired a reset")
			}
			if _, fire := p.TruncateWrite(i); fire {
				t.Fatal("inert plane fired a truncation")
			}
			if !p.Alive(i) {
				t.Fatal("inert plane killed a peer")
			}
		}
	}
}

// schedule records the outcome of a fixed probe sequence against a plane.
func schedule(p *Plane) []bool {
	var out []bool
	for peer := 0; peer < 50; peer++ {
		for call := 0; call < 4; call++ {
			out = append(out, p.DialTimeout(peer))
			out = append(out, p.HandshakeStall(peer))
			out = append(out, p.MessageLossAt(uint64(call), peer, 0))
			out = append(out, p.PeerDepart(peer))
			b, f := p.ConnReset(peer)
			out = append(out, f, b > 0 == f)
			b, f = p.TruncateWrite(peer)
			out = append(out, f, b > 0 == f)
		}
	}
	return out
}

func TestIdenticalSeedsIdenticalSchedules(t *testing.T) {
	cfg := Config{
		Seed: 7, DialTimeout: 0.3, HandshakeStall: 0.2, ConnReset: 0.2,
		TruncateWrite: 0.2, PeerDepart: 0.1, MessageLoss: 0.25,
	}
	a := schedule(New(cfg))
	b := schedule(New(cfg))
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at probe %d", i)
		}
	}
	fired := 0
	for _, v := range a {
		if v {
			fired++
		}
	}
	if fired == 0 {
		t.Error("no fault fired across 50 peers at 20-30% rates")
	}

	cfg.Seed = 8
	c := schedule(New(cfg))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestSchedulePerKeyIndependentOfInterleaving(t *testing.T) {
	// The nth decision for a given (site, key) must not depend on calls
	// made for other keys in between.
	cfg := Config{Seed: 11, DialTimeout: 0.5}
	a := New(cfg)
	var seqA []bool
	for call := 0; call < 10; call++ {
		seqA = append(seqA, a.DialTimeout(3))
	}
	b := New(cfg)
	var seqB []bool
	for call := 0; call < 10; call++ {
		for other := 0; other < 5; other++ {
			b.DialTimeout(other * 100)
		}
		seqB = append(seqB, b.DialTimeout(3))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("interleaved calls perturbed the schedule at step %d", i)
		}
	}
}

func TestMessageLossAtIsScheduleInvariant(t *testing.T) {
	p := New(Config{Seed: 11, MessageLoss: 0.3})
	// The decision must be a pure function of (salt, to, n): interleaving
	// other rolls, or consuming the plane-global counters, must not change
	// it.
	want := make(map[[3]uint64]bool)
	for salt := uint64(0); salt < 4; salt++ {
		for to := 0; to < 20; to++ {
			for n := uint64(0); n < 3; n++ {
				want[[3]uint64{salt, uint64(to), n}] = p.MessageLossAt(salt, to, n)
			}
		}
	}
	for i := 0; i < 100; i++ {
		p.DialTimeout(i % 7) // churn the global counters
	}
	for n := uint64(3); n > 0; n-- { // reversed order
		for to := 19; to >= 0; to-- {
			for salt := uint64(3); ; salt-- {
				if got := p.MessageLossAt(salt, to, n-1); got != want[[3]uint64{salt, uint64(to), n - 1}] {
					t.Fatalf("MessageLossAt(%d,%d,%d) changed across orderings", salt, to, n-1)
				}
				if salt == 0 {
					break
				}
			}
		}
	}
	// Inert planes draw nothing.
	var nilPlane *Plane
	if nilPlane.MessageLossAt(1, 2, 3) || New(Config{Seed: 11}).MessageLossAt(1, 2, 3) {
		t.Error("inert plane lost a message")
	}
	// Distinct salts must decorrelate: two floods over the same edges see
	// different schedules.
	same := 0
	const probes = 400
	for i := 0; i < probes; i++ {
		if p.MessageLossAt(1, i, 0) == p.MessageLossAt(2, i, 0) {
			same++
		}
	}
	if same == probes {
		t.Error("salts 1 and 2 produced identical schedules")
	}
}

func TestLivenessSnapshotSharesMask(t *testing.T) {
	p := New(Config{Seed: 3})
	if p.LivenessSnapshot() != nil {
		t.Error("fresh plane has a mask")
	}
	var nilPlane *Plane
	if nilPlane.LivenessSnapshot() != nil {
		t.Error("nil plane has a mask")
	}
	mask := []bool{true, false, true}
	p.SetLiveness(mask)
	snap := p.LivenessSnapshot()
	if len(snap) != 3 || snap[1] {
		t.Errorf("snapshot %v does not reflect the mask", snap)
	}
}

func TestDialTimeoutIsTransient(t *testing.T) {
	// At a 50% dial-fault rate, repeated attempts to the same peer must
	// eventually get through (the schedule re-rolls per attempt).
	p := New(Config{Seed: 3, DialTimeout: 0.5})
	for peer := 0; peer < 20; peer++ {
		ok := false
		for attempt := 0; attempt < 40; attempt++ {
			if !p.DialTimeout(peer) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("peer %d never dialable in 40 attempts at 50%% fault rate", peer)
		}
	}
}

func TestLivenessMask(t *testing.T) {
	p := New(Config{Seed: 1})
	mask := []bool{true, false, true}
	p.SetLiveness(mask)
	if !p.Alive(0) || p.Alive(1) || !p.Alive(2) {
		t.Error("mask not honored")
	}
	// Out-of-range IDs are treated as alive.
	if !p.Alive(3) || !p.Alive(-1) {
		t.Error("out-of-range IDs should be alive")
	}
	p.SetLiveness(nil)
	if !p.Alive(1) {
		t.Error("nil mask should mark everyone alive")
	}
}

func TestConcurrentUse(t *testing.T) {
	// The plane is consulted from servent goroutines; hammer it from
	// several goroutines so the race detector can check the counters.
	p := New(Config{Seed: 5, DialTimeout: 0.3, PeerDepart: 0.3, MessageLoss: 0.3})
	p.SetLiveness(make([]bool, 64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.DialTimeout(i % 7)
				p.MessageLossAt(uint64(g), i%13, uint64(i))
				p.PeerDepart(g)
				p.Alive(i % 64)
			}
		}(g)
	}
	wg.Wait()
}
