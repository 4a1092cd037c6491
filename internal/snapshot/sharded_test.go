package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/dict"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
)

// testBuildConfig mirrors buildNet's population so sharded output can be
// compared against the in-heap path byte for byte.
func testBuildConfig(peers int) BuildConfig {
	return BuildConfig{
		Catalog: catalog.Config{
			Seed: 11, Peers: peers, UniqueObjects: peers * 20, ReplicaAlpha: 2.45,
			VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
		},
		Network: func() gnet.Config {
			cfg := gnet.DefaultConfig(11)
			cfg.FirewalledFrac = 0.1
			return cfg
		}(),
	}
}

// TestShardedByteIdentical is the central identity gate: BuildSharded must
// produce exactly the bytes Save produces from the equivalent in-heap
// build — at every shard size, including shards much smaller than the
// network and a single shard holding everything.
func TestShardedByteIdentical(t *testing.T) {
	const peers = 150
	nw := buildNet(t, peers)
	_, heapPath := saveTo(t, nw)
	want, err := os.ReadFile(heapPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{1, 7, 64, peers, 10 * peers} {
		cfg := testBuildConfig(peers)
		cfg.ShardSize = shard
		path := filepath.Join(t.TempDir(), "sharded.qcsnap")
		stats, err := BuildSharded(path, cfg)
		if err != nil {
			t.Fatalf("shard=%d: %v", shard, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard=%d: sharded snapshot (%d bytes) differs from in-heap save (%d bytes)",
				shard, len(got), len(want))
		}
		if stats.FileBytes != int64(len(got)) {
			t.Fatalf("shard=%d: stats report %d bytes, file has %d", shard, stats.FileBytes, len(got))
		}
		if stats.Peers != peers || stats.Placements == 0 || stats.DictTerms == 0 {
			t.Fatalf("shard=%d: implausible stats %+v", shard, stats)
		}
		// Shards must actually shard: the bucket count follows the clamped
		// shard size.
		if wantShards := (peers + stats.ShardSize - 1) / stats.ShardSize; stats.Shards != wantShards {
			t.Fatalf("shard=%d: %d shards for effective size %d", shard, stats.Shards, stats.ShardSize)
		}
	}
}

// TestMappedRoundTrip: LoadMapped must reconstruct the same substrate as
// the copying loader — same index fingerprint, same dictionary — flag
// itself as borrowed, resave to the identical file (the mapped fixed
// point), and release its mapping on Close.
func TestMappedRoundTrip(t *testing.T) {
	nw := buildNet(t, 150)
	want, err := nw.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	_, path := saveTo(t, nw)
	m, err := LoadMapped(path, 0)
	if err != nil {
		t.Fatalf("LoadMapped: %v", err)
	}
	if !m.Borrowed() {
		t.Fatal("mapped network does not report Borrowed")
	}
	got, err := m.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("mapped index checksum diverged: %#x vs %#x", got, want)
	}
	if m.TermDict().Checksum() != nw.TermDict().Checksum() {
		t.Fatal("mapped dictionary checksum diverged")
	}
	// Resave fixed point through the mapped views.
	resaved := filepath.Join(t.TempDir(), "resaved.qcsnap")
	if _, err := Save(resaved, m, 0); err != nil {
		t.Fatalf("Save over mapped network: %v", err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resaving a mapped network changed the bytes")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMappedFloodsIdentical floods a mapped restore against the original
// network: results must be byte-identical, and overlay mutation on the
// mapped network (which rewires heap neighbor arenas, never the mapping)
// must keep the underlying file pristine.
func TestMappedFloodsIdentical(t *testing.T) {
	a := buildNet(t, 150)
	_, path := saveTo(t, a)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadMapped(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctxA, ctxB := a.NewFloodCtx(), b.NewFloodCtx()
	flood := func(trial int) {
		origin := trial * 7 % len(a.Peers)
		var criteria string
		for _, p := range a.Peers {
			if len(p.Library) > trial%5 {
				criteria = p.Library[trial%5].Name
				break
			}
		}
		ra, err := ctxA.Flood(origin, criteria, 4, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ctxB.Flood(origin, criteria, 4, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("trial %d diverged:\n%+v\nvs\n%+v", trial, ra, rb)
		}
	}
	for trial := 0; trial < 15; trial++ {
		flood(trial)
	}
	// Mutate the overlay identically on both sides and keep flooding: the
	// mapped network's neighbor lists are heap arenas, so this must work
	// and must not touch the mapping.
	for _, nw := range []*gnet.Network{a, b} {
		if !nw.DisconnectPeers(0, nw.Peers[0].Neighbors[0]) {
			t.Fatal("disconnect failed")
		}
		// The twins are identical, so this either succeeds on both or is a
		// duplicate edge on both; divergence would show up in the floods.
		_ = nw.ConnectPeers(0, len(nw.Peers)-1)
	}
	for trial := 15; trial < 25; trial++ {
		flood(trial)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("using a mapped network modified the snapshot file")
	}
}

// TestRestoredFloodsMatchUnindexedTwin holds restored networks — copied
// and mapped, whose holder index NewFromState rebuilt so their floods probe
// only the peers it names — to a twin that never had its indexes built
// eagerly, has no holder index, and so probes every peer a flood reaches.
// Every dictionary term is flooded on its own (a missing holder would lose
// that peer's hit) and file names are flooded whole, before and after
// AddFile grows libraries with a name of known terms and one the shared
// dictionary never saw: on the mapped twin that is a copy-on-write over a
// PROT_READ mapping, so a write through a borrowed view would fault.
func TestRestoredFloodsMatchUnindexedTwin(t *testing.T) {
	_, path := saveTo(t, buildNet(t, 120))
	ref := buildNet(t, 120) // Save above built the other copy's indexes, not this one's
	copied, err := Load(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadMapped(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	nets := []*gnet.Network{ref, copied, mapped}
	ctxs := make([]*gnet.FloodCtx, len(nets))
	for i, nw := range nets {
		ctxs[i] = nw.NewFloodCtx()
	}
	trial := 0
	flood := func(origin int, criteria string) {
		t.Helper()
		trial++
		var want *gnet.FloodResult
		for i, ctx := range ctxs {
			got, err := ctx.Flood(origin, criteria, 5, rng.New(uint64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("network %d, flood %d from %d (%q) diverged from the unindexed twin:\n%+v\nvs\n%+v",
					i, trial, origin, criteria, got, want)
			}
		}
	}
	sweep := func() {
		d := ref.TermDict()
		for id := 0; id < d.Len(); id++ {
			flood(id%len(ref.Peers), d.Term(dict.TermID(id)))
		}
		for i, p := range ref.Peers {
			if len(p.Library) > 0 {
				flood((i*7+1)%len(ref.Peers), p.Library[len(p.Library)/2].Name)
			}
		}
	}
	sweep()
	known, novel := ref.Peers[3].Library[0].Name, "zzqx unseen replica token"
	for _, nw := range nets {
		for _, id := range []int{5, 60, 119} {
			if err := nw.AddFile(id, known, 4096); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{6, 60} { // peer 60 gets both
			if err := nw.AddFile(id, novel, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for origin := 0; origin < len(ref.Peers); origin += 11 {
		flood(origin, known)
		flood(origin, novel)
		flood(origin, "unseen zzqx")
	}
	sweep()
}

// TestLoadMappedFailurePaths: every damage mode must surface its typed
// sentinel from the mapped path without crashing — and a version-1 header
// must be refused with ErrVersion by both loaders.
func TestLoadMappedFailurePaths(t *testing.T) {
	nw := buildNet(t, 80)
	_, path := saveTo(t, nw)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(t *testing.T, b []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "mut.qcsnap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	expect := func(t *testing.T, p string, want error) {
		t.Helper()
		if _, err := LoadMapped(p, 0); err == nil {
			t.Fatal("LoadMapped accepted damaged bytes")
		} else if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		} else {
			t.Logf("rejected with: %v", err)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		expect(t, write(t, pristine[:len(pristine)/2]), ErrTruncated)
	})
	t.Run("tiny file", func(t *testing.T) {
		expect(t, write(t, pristine[:17]), ErrTruncated)
	})
	t.Run("section hash mismatch", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[len(b)-1] ^= 0x01
		p := write(t, b)
		expect(t, p, ErrFingerprint)
		expect(t, p, ErrCorrupt) // v2 hash damage matches both sentinels
	})
	t.Run("directory hash mismatch", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[dirOff+8] ^= 0x01 // first section's recorded offset
		expect(t, write(t, b), ErrFingerprint)
	})
	t.Run("trailing garbage", func(t *testing.T) {
		expect(t, write(t, append(append([]byte(nil), pristine...), 0)), ErrCorrupt)
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[0] ^= 0xff
		expect(t, write(t, b), ErrFormat)
	})

	t.Run("v1 file", func(t *testing.T) {
		p := write(t, v1Header)
		expect(t, p, ErrVersion)
		if _, err := Load(p, 0); !errors.Is(err, ErrVersion) {
			t.Fatalf("Load: got %v, want ErrVersion", err)
		}
	})
}
