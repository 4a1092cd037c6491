package gnet

import (
	"reflect"
	"testing"

	"querycentric/internal/capacity"
	"querycentric/internal/faults"
	"querycentric/internal/rng"
)

// TestFloodCtxLongReuseMatchesFresh drives one context through several
// hundred consecutive floods — far past anything the trial engine batches —
// and checks every result against a fresh context on an identically
// configured twin network. This pins the epoch-stamped recycling of the
// seen/loss/capacity scratch arrays: a stale stamp surviving into a later
// epoch would show up as a suppressed delivery, a shifted loss roll or a
// phantom queue-admission attempt.
func TestFloodCtxLongReuseMatchesFresh(t *testing.T) {
	const peers = 120
	const floods = 320
	build := func() (*Network, *capacity.Plane) {
		nw := populatedNet(t, peers)
		nw.SetFaults(faults.New(faults.Config{Seed: 11, MessageLoss: 0.15}))
		cfg := capacity.DefaultConfig(11)
		cfg.QueueDepth = 6
		cfg.Policy = capacity.TTLAware
		pl, err := capacity.New(cfg, peers)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetCapacity(pl)
		return nw, pl
	}
	a, pa := build()
	b, pb := build()
	ctx := a.NewFloodCtx()
	now := int64(0)
	for i := 0; i < floods; i++ {
		origin := (i * 7) % peers
		criteria := fileOf(t, a, i*13+1)
		ra, err := ctx.Flood(origin, criteria, 4, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.NewFloodCtx().Flood(origin, criteria, 4, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("flood %d: reused ctx diverged from fresh ctx:\n%+v\nvs\n%+v", i, ra, rb)
		}
		// Fold queue state on both planes every few floods so later epochs
		// run against real committed backlog (and real shedding), not a
		// forever-empty queue.
		if i%8 == 7 {
			now += 20
			pa.Commit(now)
			pa.Advance(now)
			pb.Commit(now)
			pb.Advance(now)
		}
	}
	pa.Commit(now)
	pb.Commit(now)
	sa, sb := pa.Stats(), pb.Stats()
	if sa != sb {
		t.Fatalf("capacity stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Shed == 0 {
		t.Fatal("test never exercised shedding; tighten QueueDepth")
	}
}
