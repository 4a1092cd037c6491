package chord

import (
	"math"
	"testing"

	"querycentric/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestRingSortedAndComplete(t *testing.T) {
	r, err := New(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.nodes) != 500 {
		t.Fatalf("size = %d", len(r.nodes))
	}
	nodes := r.nodes
	for i := 1; i < len(nodes); i++ {
		if nodes[i].ID <= nodes[i-1].ID {
			t.Fatal("nodes not sorted by ID")
		}
	}
	for i := 0; i < 500; i++ {
		if r.NodeByIndex(i) == nil {
			t.Fatalf("missing node index %d", i)
		}
	}
}

func TestSuccessorOwnership(t *testing.T) {
	r, err := New(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := r.nodes
	// A key equal to a node's ID is owned by that node.
	if got := r.Successor(nodes[7].ID); got != nodes[7] {
		t.Error("key equal to node ID not owned by that node")
	}
	// A key just above a node's ID is owned by the next node.
	if got := r.Successor(nodes[7].ID + 1); got != nodes[8] {
		t.Error("key after node ID not owned by the successor")
	}
	// Wrap-around: a key above the max ID is owned by the first node.
	if got := r.Successor(nodes[99].ID + 1); got != nodes[0] {
		t.Error("wrap-around ownership broken")
	}
}

func TestLookupCorrectness(t *testing.T) {
	r, err := New(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(4)
	for trial := 0; trial < 500; trial++ {
		key := g.Uint64()
		from := r.NodeByIndex(g.Intn(1000))
		owner, hops, err := r.Lookup(key, from)
		if err != nil {
			t.Fatal(err)
		}
		if owner != r.Successor(key) {
			t.Fatalf("lookup returned wrong owner for key %x", key)
		}
		if hops < 0 || hops > 64 {
			t.Fatalf("hops = %d", hops)
		}
	}
}

func TestLookupLogarithmicHops(t *testing.T) {
	r, err := New(4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(6)
	total := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		_, hops, err := r.Lookup(g.Uint64(), r.NodeByIndex(g.Intn(4096)))
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	mean := float64(total) / trials
	logN := math.Log2(4096) // 12
	if mean > logN {
		t.Errorf("mean hops %.2f exceeds log2(n)=%.0f", mean, logN)
	}
	if mean < logN/4 {
		t.Errorf("mean hops %.2f suspiciously small", mean)
	}
}

func TestLookupFromOwner(t *testing.T) {
	r, _ := New(50, 7)
	n := r.nodes[3]
	owner, hops, err := r.Lookup(n.ID, n)
	if err != nil {
		t.Fatal(err)
	}
	if owner != n || hops != 0 {
		t.Errorf("self lookup: owner=%v hops=%d", owner.Index, hops)
	}
	if _, _, err := r.Lookup(1, nil); err == nil {
		t.Error("nil start node accepted")
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	if HashKey("madonna") != HashKey("madonna") {
		t.Error("hash not deterministic")
	}
	if HashKey("madonna") == HashKey("madonn") {
		t.Error("suspicious collision")
	}
}

func TestJoinLeave(t *testing.T) {
	r, err := New(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddNode(500, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddNode(500, 9); err == nil {
		t.Error("duplicate index accepted")
	}
	r.Stabilize()
	g := rng.New(10)
	for i := 0; i < 100; i++ {
		key := g.Uint64()
		owner, _, err := r.Lookup(key, r.NodeByIndex(500))
		if err != nil {
			t.Fatal(err)
		}
		if owner != r.Successor(key) {
			t.Fatal("lookup wrong after join")
		}
	}
	if err := r.RemoveNode(500); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveNode(500); err == nil {
		t.Error("double removal accepted")
	}
	r.Stabilize()
	for i := 0; i < 100; i++ {
		key := g.Uint64()
		owner, _, err := r.Lookup(key, r.NodeByIndex(3))
		if err != nil {
			t.Fatal(err)
		}
		if owner != r.Successor(key) {
			t.Fatal("lookup wrong after leave")
		}
	}
}

func TestRemoveLastNode(t *testing.T) {
	r, _ := New(1, 11)
	if err := r.RemoveNode(0); err == nil {
		t.Error("removing last node accepted")
	}
}

func TestStore(t *testing.T) {
	r, err := New(200, 12)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(r)
	key := HashKey("aaron neville - i dont know much.mp3")
	pub := r.NodeByIndex(5)
	if _, err := s.Put(key, 42, pub); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(key, 77, r.NodeByIndex(100)); err != nil {
		t.Fatal(err)
	}
	vals, hops, err := s.Get(key, r.NodeByIndex(150))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 42 || vals[1] != 77 {
		t.Errorf("values = %v", vals)
	}
	if hops < 0 || hops > 64 {
		t.Errorf("hops = %d", hops)
	}
	// Missing key returns nothing.
	if vals, _, err := s.Get(HashKey("nope"), pub); err != nil || len(vals) != 0 {
		t.Errorf("missing key: %v, %v", vals, err)
	}
}

func BenchmarkLookup(b *testing.B) {
	r, err := New(10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Lookup(g.Uint64(), r.NodeByIndex(i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}
