package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
)

// buildNet constructs a small catalog-backed network.
func buildNet(t *testing.T, peers int) *gnet.Network {
	t.Helper()
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 11, Peers: peers, UniqueObjects: peers * 20, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gnet.DefaultConfig(11)
	cfg.FirewalledFrac = 0.1
	nw, err := gnet.NewFromCatalogWorkers(cfg, cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// saveTo round-trips nw through a snapshot file and returns the loaded
// twin plus the file path.
func saveTo(t *testing.T, nw *gnet.Network) (*gnet.Network, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.qcsnap")
	n, err := Save(path, nw, 0)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("Save reported %d bytes, file has %d", n, fi.Size())
	}
	back, err := Load(path, 0)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return back, path
}

// TestRoundTripIndexChecksum pins the strongest cheap invariant: the
// decoded-index fingerprint (dictionary + every peer's term IDs, counts
// and posting values) survives the save/load cycle bit-for-bit.
func TestRoundTripIndexChecksum(t *testing.T) {
	nw := buildNet(t, 150)
	want, err := nw.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	back, _ := saveTo(t, nw)
	got, err := back.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("index checksum diverged: %#x vs %#x", got, want)
	}
	if back.TermDict().Checksum() != nw.TermDict().Checksum() {
		t.Fatal("dictionary checksum diverged")
	}
	ws, err := nw.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	gs, err := back.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if ws != gs {
		t.Fatalf("index stats diverged:\n%+v\nvs\n%+v", gs, ws)
	}
}

// TestRoundTripFloodsIdentical floods the restored network and the
// original across plain, QRP and lossy configurations; every result must
// be byte-identical — the restored substrate is the built substrate.
func TestRoundTripFloodsIdentical(t *testing.T) {
	for _, mode := range []string{"plain", "qrp", "lossy"} {
		t.Run(mode, func(t *testing.T) {
			a := buildNet(t, 150)
			b, _ := saveTo(t, a)
			switch mode {
			case "qrp":
				for _, nw := range []*gnet.Network{a, b} {
					if err := nw.EnableQRP(16); err != nil {
						t.Fatal(err)
					}
				}
			case "lossy":
				a.SetFaults(faults.New(faults.Config{Seed: 3, MessageLoss: 0.25}))
				b.SetFaults(faults.New(faults.Config{Seed: 3, MessageLoss: 0.25}))
			}
			ctxA, ctxB := a.NewFloodCtx(), b.NewFloodCtx()
			for trial := 0; trial < 25; trial++ {
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
					t.Fatalf("%s trial %d diverged:\n%+v\nvs\n%+v", mode, trial, ra, rb)
				}
			}
		})
	}
}

// TestRoundTripTopologyIdentical compares identity, links, libraries and
// the firewalled mask peer by peer.
func TestRoundTripTopologyIdentical(t *testing.T) {
	nw := buildNet(t, 120)
	back, _ := saveTo(t, nw)
	if back.Config != nw.Config {
		t.Fatalf("config diverged: %+v vs %+v", back.Config, nw.Config)
	}
	if len(back.Peers) != len(nw.Peers) {
		t.Fatalf("peer count %d vs %d", len(back.Peers), len(nw.Peers))
	}
	for i, p := range nw.Peers {
		q := back.Peers[i]
		if q.ID != p.ID || q.Addr != p.Addr || q.Ultrapeer != p.Ultrapeer || q.ServentID != p.ServentID {
			t.Fatalf("peer %d identity diverged", i)
		}
		if !reflect.DeepEqual(q.Neighbors, p.Neighbors) {
			t.Fatalf("peer %d neighbors diverged", i)
		}
		if !reflect.DeepEqual(q.Library, p.Library) {
			t.Fatalf("peer %d library diverged", i)
		}
		if back.Firewalled(i) != nw.Firewalled(i) {
			t.Fatalf("peer %d firewalled bit diverged", i)
		}
	}
}

// TestCorruptionFailsLoudly exercises every typed failure mode: foreign
// bytes, a future version, truncation, structural damage and content
// damage must all refuse to produce a network, each with its sentinel.
func TestCorruptionFailsLoudly(t *testing.T) {
	nw := buildNet(t, 80)
	_, path := saveTo(t, nw)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, f func(b []byte) []byte, want error) {
		t.Helper()
		b := f(append([]byte(nil), pristine...))
		mut := filepath.Join(t.TempDir(), "mut.qcsnap")
		if err := os.WriteFile(mut, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(mut, 0)
		if err == nil {
			t.Fatal("Load accepted a damaged snapshot")
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
		t.Logf("rejected with: %v", err)
	}

	t.Run("bad magic", func(t *testing.T) {
		mutate(t, func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrFormat)
	})
	t.Run("future version", func(t *testing.T) {
		mutate(t, func(b []byte) []byte { b[6] = Version + 1; return b }, ErrVersion)
	})
	t.Run("truncated", func(t *testing.T) {
		mutate(t, func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated)
	})
	t.Run("missing trailer", func(t *testing.T) {
		mutate(t, func(b []byte) []byte { return b[:len(b)-10] }, ErrTruncated)
	})
	t.Run("flipped content byte", func(t *testing.T) {
		// Deep inside the payload: parses fine structurally (raw arena
		// bytes), so only the fingerprint can catch it — and must.
		mutate(t, func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, nil)
	})
	t.Run("flipped trailer byte", func(t *testing.T) {
		mutate(t, func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrFingerprint)
	})
	t.Run("trailing garbage", func(t *testing.T) {
		mutate(t, func(b []byte) []byte { return append(b, 0) }, ErrCorrupt)
	})
}

// TestSaveRoundTripsHandAssembledNetwork: every network has one dictionary,
// so a network assembled by hand (gnet.New plus libraries, indexed by Save)
// and a catalog network AddFile re-interned onto a new dictionary (a
// replica of terms it never saw) both save, and both loaders reproduce each
// one's index checksum and a flood's hits.
func TestSaveRoundTripsHandAssembledNetwork(t *testing.T) {
	hand, err := gnet.New(gnet.DefaultConfig(3), 20)
	if err != nil {
		t.Fatal(err)
	}
	hand.Peers[4].Library = []gnet.File{{Index: 0, Size: 7, Name: "Hand Built Song.mp3"}}
	hand.Peers[9].Library = []gnet.File{{Index: 0, Size: 8, Name: "Another Hand Song.mp3"}}
	grown := buildNet(t, 60)
	if err := grown.AddFile(7, "Zzqx Unseen Replica.mp3", 9); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, criteria string
		nw             *gnet.Network
	}{{"hand-assembled", "hand song", hand}, {"novel AddFile", "zzqx unseen", grown}} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.qcsnap")
			if _, err := Save(path, c.nw, 0); err != nil {
				t.Fatalf("Save: %v", err)
			}
			want, err := c.nw.IndexChecksum()
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := c.nw.NewFloodCtx().Flood(0, c.criteria, 7, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(wantRes.Hits) == 0 {
				t.Fatalf("flood for %q found nothing: the fixture must hit", c.criteria)
			}
			copied, err := Load(path, 0)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			mapped, err := LoadMapped(path, 0)
			if err != nil {
				t.Fatalf("LoadMapped: %v", err)
			}
			defer mapped.Close()
			for loader, back := range map[string]*gnet.Network{"Load": copied, "LoadMapped": mapped} {
				got, err := back.IndexChecksum()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: index checksum %#x, saved network %#x", loader, got, want)
				}
				res, err := back.NewFloodCtx().Flood(0, c.criteria, 7, rng.New(1))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("%s: flood diverged from the saved network:\n%+v\nvs\n%+v", loader, res, wantRes)
				}
			}
		})
	}
}

// v1Header is all the retired version-1 format has in common with today's:
// magic, u16le version 1, section count. Both loaders must name such a file
// with ErrVersion rather than calling it truncated or corrupt.
var v1Header = []byte{'Q', 'C', 'S', 'N', 'A', 'P', 1, 0, 5}

// TestLoadMappedCostPin pins what a mapped load of a fixed small snapshot
// costs in allocations, load and Close together: the restore of every
// section into a network that borrows its arenas from the mapping. Lowering
// the pin is free; raising it needs a CHANGES.md line that names the cause.
func TestLoadMappedCostPin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.qcsnap")
	if _, err := Save(path, buildNet(t, 40), 0); err != nil {
		t.Fatal(err)
	}
	var peers int
	load := func() {
		nw, err := LoadMapped(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		peers = len(nw.Peers)
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, load); allocs != 75 || peers != 40 {
		t.Errorf("LoadMapped of a 40-peer snapshot: %v allocs, %d peers; pinned 75, 40", allocs, peers)
	}
}
