package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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

// TestShardedWorkerInvariant: the placement pass's pipeline and Merge's
// parallel sort leave the bytes alone — BuildSharded writes Save's file at
// 1, 2 and 8 workers, over a stream long enough that the interning
// goroutine receives several full batches and a partial one.
func TestShardedWorkerInvariant(t *testing.T) {
	const peers = 400
	_, heapPath := saveTo(t, buildNet(t, peers))
	want, err := os.ReadFile(heapPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := testBuildConfig(peers)
		cfg.Workers, cfg.ShardSize = workers, peers/3
		path := filepath.Join(t.TempDir(), "sharded.qcsnap")
		stats, err := BuildSharded(path, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Placements < 3*placeBatch || stats.Placements%placeBatch == 0 {
			t.Fatalf("workers=%d: %d placements do not fill several batches of %d and part of one",
				workers, stats.Placements, placeBatch)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sharded snapshot (%d bytes) differs from in-heap save (%d bytes)",
				workers, len(got), len(want))
		}
		if stats.Placing <= 0 || stats.Merging <= 0 || stats.Sharding <= 0 || stats.Holding <= 0 {
			t.Fatalf("workers=%d: a build leg reads no time: %+v", workers, stats)
		}
	}
}

// failingWriter passes its first ok writes through to w and fails every
// later one with err.
type failingWriter struct {
	w   io.Writer
	ok  *atomic.Int64
	err error
}

func (f failingWriter) Write(p []byte) (int, error) {
	if f.ok.Add(-1) < 0 {
		return 0, f.err
	}
	return f.w.Write(p)
}

// TestShardedSpillFailure: when the bucket writes start failing in the
// middle of the placement pass, BuildSharded returns that error, its
// interning goroutine has exited, and no spill file or .tmp is left.
func TestShardedSpillFailure(t *testing.T) {
	errSpill := errors.New("spill device full")
	var ok atomic.Int64
	ok.Store(1) // one bucket flush lands, the next fails
	spillWriter = func(f *os.File) io.Writer { return failingWriter{f, &ok, errSpill} }
	defer func() { spillWriter = func(f *os.File) io.Writer { return f } }()

	dir := t.TempDir()
	cfg := testBuildConfig(1200)
	cfg.ShardSize = cfg.Catalog.Peers // one bucket, flushed every 256 KiB
	base := runtime.NumGoroutine()
	_, err := BuildSharded(filepath.Join(dir, "net.qcsnap"), cfg)
	if !errors.Is(err, errSpill) {
		t.Fatalf("BuildSharded with failing spill writes: %v, want %v", err, errSpill)
	}
	if ok.Load() >= 0 {
		t.Fatalf("the failing writer was never reached: the build did not fail mid-stream")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the failed build, %d before", n, base)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("failed build left %s behind", e.Name())
	}

	// The stream itself stops: a place that fails on its first call sees
	// the sink take at most the batches in flight, far from the whole
	// population.
	big := testBuildConfig(4000).Catalog
	total, err := streamPlacements(big, 1, func(int, string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := streamPlacements(big, 1, func(int, string) error { return errSpill })
	if !errors.Is(err, errSpill) {
		t.Fatalf("streamPlacements with a failing place: %v, want %v", err, errSpill)
	}
	if limit := placeBatches * placeBatch; accepted > limit || total < 4*limit {
		t.Fatalf("the sink accepted %d of %d placements after the first failed, want at most %d of at least %d",
			accepted, total, limit, 4*limit)
	}
}

// TestPersistedHoldersEqualRebuild: the holder index a load adopts from
// the file must be byte-equal to the inversion (the encoder BuildIndexes
// builds with) run over the peer indexes the same load restored — through
// the copying and the mapped loader, and from files written by Save and by
// BuildSharded at a third of the peers and all of them per shard (so the
// holders section streams in several pieces and in one) at 1, 2 and 8
// workers, each file byte-identical to Save's.
func TestPersistedHoldersEqualRebuild(t *testing.T) {
	const peers = 150
	_, saved := saveTo(t, buildNet(t, peers))
	want, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, nw *gnet.Network) {
		t.Helper()
		st, err := nw.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := gnet.NewHolderEncoder(nw.TermDict().Len(), len(st.Peers),
			func(i int) gnet.IndexState { return st.Peers[i].Index }, 1)
		if err != nil {
			t.Fatal(err)
		}
		var off []uint32
		var arena []byte
		enc.Offsets(func(o []uint32) { off = append(off, o...) })
		enc.Arena(math.MaxInt, func(p []byte) { arena = append(arena, p...) })
		if !reflect.DeepEqual(st.HolderOff, off) || !bytes.Equal(st.HolderArena, arena) {
			t.Fatalf("adopted holder index (%d offsets, %d bytes) differs from the rebuild (%d, %d)",
				len(st.HolderOff), len(st.HolderArena), len(off), len(arena))
		}
	}
	t.Run("Save/Load", func(t *testing.T) {
		nw, err := Load(saved, 2)
		if err != nil {
			t.Fatal(err)
		}
		check(t, nw)
		st, err := nw.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(st.HolderArena); n <= peers/3*holderPieceBytesPerPeer || n > peers*holderPieceBytesPerPeer {
			t.Fatalf("a %d-byte holder arena would not stream in several pieces and in one", n)
		}
	})
	t.Run("Save/LoadMapped", func(t *testing.T) {
		nw, err := LoadMapped(saved, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		check(t, nw)
	})
	for _, shard := range []int{peers / 3, peers} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("BuildSharded/shard=%d/workers=%d", shard, workers), func(t *testing.T) {
				cfg := testBuildConfig(peers)
				cfg.ShardSize, cfg.Workers = shard, workers
				path := filepath.Join(t.TempDir(), "sharded.qcsnap")
				if _, err := BuildSharded(path, cfg); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("sharded snapshot differs from Save's")
				}
				nw, err := LoadMapped(path, workers)
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				check(t, nw)
			})
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
// and mapped, whose holder index NewFromState adopted from the file so
// their floods probe only the peers it names — to a twin that never had its indexes built
// eagerly, has no holder index, and so probes every peer a flood reaches.
// Every dictionary term is flooded on its own (a missing holder would lose
// that peer's hit) and file names are flooded whole, before and after
// AddFile grows libraries with a name of known terms and one the
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

// TestMappedNovelAddFileReinternsOnHeap: a replica of terms the dictionary
// never saw re-interns a mapped network, and the new dictionary, posting
// arenas and holder index all land on the heap while the untouched
// libraries keep viewing the mapping, so the network still reports
// Borrowed. The mapping is PROT_READ — a write through a view would fault —
// and the file stays byte-identical. Floods equal those of a heap twin
// given the same replica.
func TestMappedNovelAddFileReinternsOnHeap(t *testing.T) {
	ref := buildNet(t, 120)
	_, path := saveTo(t, ref)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// LoadMapped, keeping hold of the mapped bytes.
	data, backing, err := mapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseSequential(data)
	if err != nil {
		t.Fatal(err)
	}
	st.Borrowed, st.Backing = true, backing
	m, err := gnet.NewFromState(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inMapping := func(b []byte) bool {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return len(b) > 0 && p >= lo && p < lo+uintptr(len(data))
	}
	if old, _ := m.TermDict().Raw(); !inMapping(old) {
		t.Fatal("the loaded dictionary does not view the mapping")
	}

	const novel = "zzqx unseen replica token"
	for _, nw := range []*gnet.Network{ref, m} {
		if err := nw.AddFile(60, novel, 1); err != nil {
			t.Fatal(err)
		}
		if err := nw.BuildIndexes(0); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Borrowed() {
		t.Fatal("a re-interned mapped network no longer reports Borrowed")
	}
	if m.TermDict().Checksum() != ref.TermDict().Checksum() {
		t.Fatal("the re-interned dictionary differs from the heap twin's")
	}
	mst, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if inMapping(mst.DictBytes) || inMapping(mst.HolderArena) {
		t.Fatal("the re-interned dictionary or holder index views the mapping")
	}
	viewed := 0
	for i, ps := range mst.Peers {
		if inMapping(ps.Index.Arena) {
			t.Fatalf("peer %d: re-interned posting arena views the mapping", i)
		}
		if i != 60 && len(ps.Library) > 0 && inMapping(unsafe.Slice(unsafe.StringData(ps.Library[0].Name), 1)) {
			viewed++
		}
	}
	if viewed == 0 {
		t.Fatal("no untouched library views the mapping any more")
	}

	known := ref.Peers[3].Library[0].Name
	trial := uint64(0)
	for origin := 0; origin < len(ref.Peers); origin += 11 {
		for _, criteria := range []string{novel, known, "unseen zzqx"} {
			trial++
			want, err := ref.NewFloodCtx().Flood(origin, criteria, 5, rng.New(trial))
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.NewFloodCtx().Flood(origin, criteria, 5, rng.New(trial))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("flood %q from %d diverged from the heap twin:\n%+v\nvs\n%+v", criteria, origin, got, want)
			}
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("re-interning a mapped network modified the snapshot file")
	}
}

// TestLoadMappedFailurePaths: every damage mode must surface its typed
// sentinel from the mapped path without crashing — a version-1 header and
// a version-2 file must be refused with ErrVersion by both loaders, and
// every structural violation of the holder index with ErrCorrupt.
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
	t.Run("v2 file", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint16(b[len(magic):], 2)
		p := write(t, b)
		expect(t, p, ErrVersion)
		if _, err := Load(p, 0); !errors.Is(err, ErrVersion) {
			t.Fatalf("Load: got %v, want ErrVersion", err)
		}
	})

	// Structural damage to the holder index, each file re-sealed with
	// correct digests so the adoption check — not a hash — must catch it.
	terms := nw.TermDict().Len()
	holders := func(t *testing.T, want string, damage func(off []uint32, arena []byte) ([]uint32, []byte)) {
		t.Helper()
		b := append([]byte(nil), pristine...)
		at := int(binary.LittleEndian.Uint64(b[dirOff+(secHolders-1)*dirEntryLen+8:]))
		sec := b[at:]
		off := make([]uint32, terms+1)
		for i := range off {
			off[i] = binary.LittleEndian.Uint32(sec[16+4*i:])
		}
		off, arena := damage(off, append([]byte(nil), sec[16+4*len(off):]...))
		sec = binary.LittleEndian.AppendUint64(nil, uint64(len(off)-1))
		sec = binary.LittleEndian.AppendUint64(sec, uint64(len(arena)))
		sec = appendU32s(sec, off)
		p := write(t, reseal(append(b[:at], append(sec, arena...)...)))
		_, err := LoadMapped(p, 2)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFingerprint) || !strings.Contains(err.Error(), want) {
			t.Fatalf("LoadMapped: got %v, want a structural ErrCorrupt (%q)", err, want)
		}
		t.Logf("rejected with: %v", err)
		if _, err := Load(p, 1); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFingerprint) {
			t.Fatalf("Load: got %v, want a structural ErrCorrupt", err)
		}
	}
	// list finds the first term whose holder list is n bytes long.
	list := func(t *testing.T, off []uint32, n uint32) int {
		t.Helper()
		for id := 0; id < terms; id++ {
			if off[id+1]-off[id] == n {
				return id
			}
		}
		t.Fatalf("no holder list of %d bytes", n)
		return 0
	}
	t.Run("holder offsets not monotone", func(t *testing.T) {
		holders(t, fmt.Sprintf("offsets of term %d run", terms-2), func(off []uint32, arena []byte) ([]uint32, []byte) {
			// Every list before the drop stays as it was.
			off[terms-1] = off[terms-2] - 1
			return off, arena
		})
	})
	t.Run("holder offsets one short", func(t *testing.T) {
		holders(t, "offsets for", func(off []uint32, arena []byte) ([]uint32, []byte) {
			return append(off[:1:1], off[2:]...), arena
		})
	})
	t.Run("holder names peer past the last", func(t *testing.T) {
		holders(t, "names peer 127", func(off []uint32, arena []byte) ([]uint32, []byte) {
			arena[off[list(t, off, 1)]] = 0x7f // peer 127 of 80
			return off, arena
		})
	})
	t.Run("holder list ends mid-varint", func(t *testing.T) {
		holders(t, "ends inside a varint", func(off []uint32, arena []byte) ([]uint32, []byte) {
			arena[off[list(t, off, 1)]] = 0x80
			return off, arena
		})
	})
	t.Run("holder entries miss a term", func(t *testing.T) {
		// Two one-byte entries [a, b] become one overlong varint worth a:
		// a valid list, one entry short of the peers' term total.
		holders(t, "entries, the peer indexes hold", func(off []uint32, arena []byte) ([]uint32, []byte) {
			at := off[list(t, off, 2)]
			arena[at] |= 0x80
			arena[at+1] = 0
			return off, arena
		})
	})
}

// reseal recomputes every section's digest and the directory hash of a
// snapshot whose payload was rewritten in place, the holders section
// (the last) resized to end the file — so damage reaches the structural
// checks behind the hashes.
func reseal(b []byte) []byte {
	for i := 0; i < numSections; i++ {
		e := b[dirOff+i*dirEntryLen:]
		at := binary.LittleEndian.Uint64(e[8:])
		if i == numSections-1 {
			binary.LittleEndian.PutUint64(e[16:], uint64(len(b))-at)
		}
		sum := sha256.Sum256(b[at : at+binary.LittleEndian.Uint64(e[16:])])
		copy(e[24:], sum[:])
	}
	sum := sha256.Sum256(b[:dirHashOff])
	copy(b[dirHashOff:], sum[:])
	return b
}
