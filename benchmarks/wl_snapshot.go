package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"querycentric/internal/gnet"
	"querycentric/internal/rng"
	"querycentric/internal/snapshot"
)

// snapshotInst is snapshot_cold: the flood_miss network recipe built
// straight to a snapshot file by the shard-and-spill pipeline (set-up),
// then cycles of map the file → flood context → first flood → close.
type snapshotInst struct {
	path     string
	fileSize int64
	origin   int
	criteria string
	first    *gnet.FloodResult // the first cycle's flood result
	// warm is the warm-up cycle's mapping, held open until close: what a
	// mapped network keeps on the heap (topology, filters, derived tables;
	// names and postings stay in the file) is this workload's
	// heap_after_setup_mib.
	warm *gnet.Network
}

func setupSnapshot(b *bench) (instance, error) {
	si := &snapshotInst{path: filepath.Join(b.opts.tmpDir, fmt.Sprintf("net-%d.qcsnap", b.rep))}
	peers := b.sz.floodPeers
	err := b.tr.do("snapshot.BuildSharded", func() error {
		st, err := snapshot.BuildSharded(si.path, snapshot.BuildConfig{
			Catalog: catalogConfig(peers, b.sz.floodObjects),
			Network: networkConfig(),
			Workers: b.workers, ShardSize: (peers + 3) / 4,
		})
		if err == nil {
			si.fileSize = st.FileBytes
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// The discarded warm-up cycle also picks the probe query: a real file
	// name of a seeded peer, copied out of the mapping.
	nw, err := snapshot.LoadMapped(si.path, b.workers)
	if err != nil {
		return nil, err
	}
	r := rng.NewNamed(b.opts.seed, "bench/snapshot-probe")
	si.origin = r.Intn(len(nw.Peers))
	for si.criteria == "" {
		if lib := nw.Peers[r.Intn(len(nw.Peers))].Library; len(lib) > 0 {
			si.criteria = strings.Clone(lib[r.Intn(len(lib))].Name)
		}
	}
	if _, err := nw.NewFloodCtx().Flood(si.origin, si.criteria, b.sz.floodTTL, r); err != nil {
		nw.Close()
		return nil, err
	}
	si.warm = nw
	return si, nil
}

// coldStart is one cycle up to the first flood's result; the caller closes.
func (si *snapshotInst) coldStart(b *bench, cycle int) (*gnet.Network, *gnet.FloodResult, error) {
	sp := b.tr.begin("snapshot.LoadMapped", cycle)
	nw, err := snapshot.LoadMapped(si.path, b.workers)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = b.tr.begin("gnet.Flood", cycle)
	fr, err := nw.NewFloodCtx().Flood(si.origin, si.criteria, b.sz.floodTTL, rng.NewNamed(b.opts.seed, "bench/first-flood"))
	b.tr.end(sp)
	if err != nil {
		nw.Close()
		return nil, nil, err
	}
	return nw, fr, nil
}

func (si *snapshotInst) measure(b *bench) (*sample, error) {
	s := &sample{ops: b.sz.snapCycles}
	d := newDigest()
	start := time.Now()
	for c := 0; c < b.sz.snapCycles; c++ {
		cyc := b.tr.begin("cycle", c)
		t0 := time.Now()
		nw, fr, err := si.coldStart(b, c)
		if err != nil {
			return nil, err
		}
		s.latUS = append(s.latUS, float64(time.Since(t0))/1e3)
		// Copy what outlives the mapping: hit file names are views into it.
		d.ints(fr.Messages, fr.PeersReached, len(fr.Hits), fr.TotalResults)
		if c == 0 {
			si.first = &gnet.FloodResult{Messages: fr.Messages, PeersReached: fr.PeersReached, TotalResults: fr.TotalResults}
			for _, h := range fr.Hits {
				si.first.Hits = append(si.first.Hits, gnet.Hit{PeerID: h.PeerID, Hops: h.Hops})
			}
		}
		sp := b.tr.begin("gnet.Close", c)
		err = nw.Close()
		b.tr.end(sp)
		b.tr.end(cyc)
		if err != nil {
			return nil, err
		}
	}
	s.wall = time.Since(start)
	s.digest = d.sum()
	return s, nil
}

// verify holds the mapped network to its in-heap twin: equal index
// checksum, equal first flood.
func (si *snapshotInst) verify(b *bench, s *sample) []string {
	fail := func(err error) []string { return []string{err.Error()} }
	_, twin, err := buildNetwork(b, b.sz.floodPeers, b.sz.floodObjects)
	if err != nil {
		return fail(err)
	}
	want, err := twin.IndexChecksum()
	if err != nil {
		return fail(err)
	}
	nw, err := snapshot.LoadMapped(si.path, b.workers)
	if err != nil {
		return fail(err)
	}
	defer nw.Close()
	got, err := nw.IndexChecksum()
	if err != nil {
		return fail(err)
	}
	var fails []string
	if got != want {
		fails = append(fails, fmt.Sprintf("mapped index checksum %016x, in-heap twin %016x", got, want))
	}
	fr, err := twin.NewFloodCtx().Flood(si.origin, si.criteria, b.sz.floodTTL, rng.NewNamed(b.opts.seed, "bench/first-flood"))
	if err != nil {
		return append(fails, err.Error())
	}
	same := fr.Messages == si.first.Messages && fr.PeersReached == si.first.PeersReached &&
		fr.TotalResults == si.first.TotalResults && len(fr.Hits) == len(si.first.Hits)
	for i := 0; same && i < len(fr.Hits); i++ {
		same = fr.Hits[i].PeerID == si.first.Hits[i].PeerID && fr.Hits[i].Hops == si.first.Hits[i].Hops
	}
	if !same {
		fails = append(fails, "first flood on the mapped network differs from the in-heap twin's")
	}
	return fails
}

func (si *snapshotInst) layers(b *bench, s *sample) error {
	agg := b.tr.aggregate()
	b.set("snapshot.build_sharded_s", spanMeanS(agg, "snapshot.BuildSharded"))
	b.set("snapshot.file_mib", mib(uint64(si.fileSize)))
	b.set("snapshot.load_mapped_ms", median(agg["snapshot.LoadMapped"].durs)/1e3)
	b.set("snapshot.first_flood_us", median(agg["gnet.Flood"].durs))
	b.set("snapshot.close_ms", median(agg["gnet.Close"].durs)/1e3)

	sp := b.tr.begin("probe.snapshot", -1)
	defer b.tr.end(sp)
	// The same file through the copying loader, for contrast.
	var copyMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		nw, err := snapshot.Load(si.path, b.workers)
		if err != nil {
			return err
		}
		copyMS = append(copyMS, float64(time.Since(t0))/1e6)
		_ = nw.Close() // heap-backed: nothing to release
	}
	b.set("snapshot.load_copy_ms", median(copyMS))

	// First minus steady flood on one mapping is the page-fault cost.
	nw, _, err := si.coldStart(b, -1)
	if err != nil {
		return err
	}
	fc := nw.NewFloodCtx()
	r := rng.NewNamed(b.opts.seed, "bench/steady-flood")
	var steady time.Duration
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if _, err := fc.Flood(si.origin, si.criteria, b.sz.floodTTL, r); err != nil {
			nw.Close()
			return err
		}
		steady = time.Since(t0)
	}
	b.set("snapshot.steady_flood_us", float64(steady)/1e3)
	if err := nw.Close(); err != nil {
		return err
	}

	// Save of the in-heap twin: the build the sharded pipeline replaces.
	_, twin, err := buildNetwork(b, b.sz.floodPeers, b.sz.floodObjects)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := snapshot.Save(si.path+".twin", twin, b.workers); err != nil {
		return err
	}
	b.set("snapshot.save_s", time.Since(t0).Seconds())
	return os.Remove(si.path + ".twin")
}

func (si *snapshotInst) reset(b *bench) error { return nil }

func (si *snapshotInst) close() error {
	if err := si.warm.Close(); err != nil {
		return err
	}
	return os.Remove(si.path)
}
