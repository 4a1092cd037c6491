// Command qc-bench runs the two construction gates a 20-second benchmark
// run cannot host — the paper-scale and the million-peer substrate builds —
// and writes a machine-readable report. Steady-state performance (floods,
// scenarios, snapshot load-to-first-flood, per-layer cost) is measured by
// `go run ./benchmarks`, not here.
//
// By default the command builds the -index-scale catalog, network and
// posting indexes, reporting wall-clock per phase, dictionary size and
// heap-in-use around construction, and fails if construction exceeds
// -budget (`make scalefull-smoke`). Adding -snapshot-file appends a
// `snapshot` section: the built network is saved to the given file and
// loaded back — down the copying read path and the zero-copy memory
// mapping — and the command fails unless both restored index checksums
// match, the copying load completes in at most a tenth of the build time
// and the mapped load beats it. With -sharded it also runs a
// shard-and-spill build from the identical configuration and fails unless
// the resulting file is byte-identical to the in-heap save.
//
// With -sharded-only the in-heap build is skipped entirely: the
// population is built straight into -snapshot-file with the shard-and-spill
// pipeline, loaded back through the mapping, flood-probed, and gated on
// -budget and -rss-ceiling-mb (process peak RSS, VmHWM). This is the
// million-peer smoke (`make scale1m-smoke`) — the whole substrate never
// fits on the heap, only one shard plus the dictionary does.
//
// Usage:
//
//	qc-bench -index-scale full -budget 10m -sharded -shard-size 8192 \
//	         -snapshot-file out/net_full.qcsnap -o out/BENCH_index_full.json
//	qc-bench -sharded-only -index-scale 1m -shard-size 65536 -snapshot-file out/net_1m.qcsnap \
//	         -budget 6m -rss-ceiling-mb 6144 -o out/BENCH_index_1m.json
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"querycentric/internal/catalog"
	"querycentric/internal/cliflags"
	"querycentric/internal/experiments"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
	"querycentric/internal/snapshot"
)

// IndexBench records network-construction cost and the term-index memory
// footprint at one scale: wall-clock per phase and runtime.MemStats
// heap-in-use around each phase.
type IndexBench struct {
	Scale      string `json:"scale"`
	Peers      int    `json:"peers"`
	Objects    int    `json:"objects"`
	Placements int    `json:"placements"`

	CatalogSeconds    float64 `json:"catalog_seconds"`
	NetworkSeconds    float64 `json:"network_seconds"` // includes dictionary build
	IndexBuildSeconds float64 `json:"index_build_seconds"`

	DictTerms     int    `json:"dict_terms"`
	DictHeapBytes uint64 `json:"dict_heap_bytes"`
	IndexTerms    int    `json:"index_terms"`
	Postings      int    `json:"postings"`

	// Structural estimates (IndexStats) and measured process heap-in-use
	// (runtime.MemStats.HeapAlloc after GC) around each phase.
	InternedHeapBytes   uint64 `json:"interned_index_heap_bytes"`
	HeapBeforeBytes     uint64 `json:"heap_before_bytes"`
	HeapAfterBuildBytes uint64 `json:"heap_after_build_bytes"`
	HeapAfterIndexBytes uint64 `json:"heap_after_index_bytes"`

	BudgetSeconds float64 `json:"budget_seconds,omitempty"`
	WithinBudget  bool    `json:"within_budget"`
}

// SnapshotBench records the persistence round trip on the network the index
// section just built: save and load wall-clock against the fresh-build
// wall-clock, the snapshot file size, and how far the varint posting arenas
// compress the postings relative to the flat 4-bytes-per-posting layout the
// snapshot would otherwise have to carry.
type SnapshotBench struct {
	File  string `json:"file"`
	Scale string `json:"scale"`

	BuildSeconds float64 `json:"build_seconds"` // catalog + network + indexes
	SaveSeconds  float64 `json:"save_seconds"`
	LoadSeconds  float64 `json:"load_seconds"`
	LoadSpeedup  float64 `json:"load_speedup_vs_build"`

	FileBytes        int64   `json:"file_bytes"`
	ArenaBytes       uint64  `json:"arena_bytes"`        // varint posting arenas + skip arrays
	FlatPostingBytes uint64  `json:"flat_posting_bytes"` // 4 bytes per posting, uncompressed
	ArenaCompression float64 `json:"arena_compression_ratio"`

	ChecksumMatch bool `json:"checksum_match"`

	// Zero-copy leg: the same file restored through the read-only memory
	// mapping instead of the copying read path.
	MappedLoadSeconds   float64 `json:"mapped_load_seconds"`
	MappedSpeedupVsLoad float64 `json:"mapped_speedup_vs_load"`
	MappedChecksumMatch bool    `json:"mapped_checksum_match"`

	// Shard-and-spill leg (-sharded): the same configuration built straight
	// to disk in bounded shards must reproduce the in-heap save bit for bit.
	ShardSize           int     `json:"shard_size,omitempty"`
	ShardedBuildSeconds float64 `json:"sharded_build_seconds,omitempty"`
	ShardedFileMatch    bool    `json:"sharded_file_match,omitempty"`
}

// ShardedBench records the -sharded-only smoke: a shard-and-spill build at
// a scale whose substrate does not fit on the heap, restored through the
// memory mapping and probed with real floods, with the process peak RSS
// (VmHWM) as the memory-bound evidence.
type ShardedBench struct {
	Scale      string `json:"scale"`
	Peers      int    `json:"peers"`
	Objects    int    `json:"objects"`
	Placements int    `json:"placements"`
	ShardSize  int    `json:"shard_size"`
	Shards     int    `json:"shards"`
	DictTerms  int    `json:"dict_terms"`
	FileBytes  int64  `json:"file_bytes"`

	BuildSeconds      float64 `json:"build_seconds"`
	MappedLoadSeconds float64 `json:"mapped_load_seconds"`

	// IndexChecksum is the restored network's index fingerprint in hex, for
	// cross-run and cross-machine comparison.
	IndexChecksum     string `json:"index_checksum"`
	FloodPeersReached int    `json:"flood_peers_reached"`
	FloodResults      int    `json:"flood_results"`

	PeakRSSMB        float64 `json:"peak_rss_mb"` // VmHWM from /proc/self/status
	RSSCeilingMB     float64 `json:"rss_ceiling_mb,omitempty"`
	WithinRSSCeiling bool    `json:"within_rss_ceiling"`
	BudgetSeconds    float64 `json:"budget_seconds,omitempty"`
	WithinBudget     bool    `json:"within_budget"`
}

// Report is the schema of out/BENCH_index_full.json and
// out/BENCH_index_1m.json.
type Report struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Index *IndexBench `json:"index,omitempty"`

	Snapshot *SnapshotBench `json:"snapshot,omitempty"`

	Sharded *ShardedBench `json:"sharded,omitempty"`

	Note string `json:"note"`
}

func main() {
	var (
		out         = flag.String("o", "out/BENCH_index.json", "output file (parent directory is created)")
		seed        = cliflags.AddSeed(flag.CommandLine)
		indexScale  = flag.String("index-scale", "default", "scale to build (tiny|small|default|full|1m)")
		budget      = flag.Duration("budget", 0, "fail if construction exceeds this wall-clock budget (0 = no budget)")
		snapFile    = flag.String("snapshot-file", "", "also save/load the built network through this snapshot file and gate the round trip")
		sharded     = flag.Bool("sharded", false, "with -snapshot-file: also run a shard-and-spill build from the same configuration and fail unless its file is byte-identical to the in-heap save")
		shardedOnly = flag.Bool("sharded-only", false, "skip the in-heap build: shard-and-spill straight into -snapshot-file, restore through the memory mapping, flood-probe, and gate on -budget and -rss-ceiling-mb (the 1m smoke)")
		shardSize   = flag.Int("shard-size", 0, "peers per shard for -sharded/-sharded-only (0 = builder default)")
		rssCeiling  = flag.Int("rss-ceiling-mb", 0, "with -sharded-only: fail if process peak RSS (VmHWM) exceeds this many MiB (0 = no ceiling)")
	)
	flag.Parse()
	if err := cliflags.CheckNonNegative("-shard-size", *shardSize); err != nil {
		fail(err)
	}
	if err := cliflags.CheckNonNegative("-rss-ceiling-mb", *rssCeiling); err != nil {
		fail(err)
	}
	if (*sharded || *shardedOnly) && *snapFile == "" {
		fail(fmt.Errorf("-sharded/-sharded-only need -snapshot-file"))
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	if *shardedOnly {
		hb, err := runShardedBench(*indexScale, *seed, *shardSize, *budget, *rssCeiling, *snapFile)
		if err != nil {
			fail(err)
		}
		rep.Sharded = hb
		rep.Note = "sharded-only smoke: the population is built straight " +
			"into the snapshot with the shard-and-spill pipeline (peak heap " +
			"one shard + dictionary), restored zero-copy through the memory " +
			"mapping and probed with real floods; peak_rss_mb is the " +
			"process-wide VmHWM, the memory-bound evidence."
		writeReport(rep, *out)
		if !hb.WithinBudget {
			fmt.Fprintf(os.Stderr, "qc-bench: sharded build+load exceeded budget (%.1fs > %.1fs)\n",
				hb.BuildSeconds+hb.MappedLoadSeconds, hb.BudgetSeconds)
			os.Exit(1)
		}
		if !hb.WithinRSSCeiling {
			fmt.Fprintf(os.Stderr, "qc-bench: peak RSS %.0f MiB exceeds ceiling %.0f MiB\n",
				hb.PeakRSSMB, hb.RSSCeilingMB)
			os.Exit(1)
		}
		if hb.FloodResults == 0 {
			fmt.Fprintln(os.Stderr, "qc-bench: floods over the mapped network returned no results")
			os.Exit(1)
		}
		return
	}

	ib, sb, err := runIndexBench(*indexScale, *seed, *budget, *snapFile, *sharded, *shardSize)
	if err != nil {
		fail(err)
	}
	rep.Index = ib
	rep.Snapshot = sb
	rep.Note = "construction gate: one build of the catalog, network and " +
		"posting indexes at index.scale, measured once on this machine."
	if sb != nil {
		rep.Note += " The snapshot section is one save/load round trip " +
			"measured on this machine, not a benchmark mean; the load " +
			"rebuilds derived structures (QRP hash products, the holder " +
			"index) in parallel, so with " +
			"num_cpu=1 the reported load time is the serial worst case. " +
			"The mapped row restores the same file zero-copy through a " +
			"read-only memory mapping."
	}

	writeReport(rep, *out)
	if !ib.WithinBudget {
		fmt.Fprintf(os.Stderr, "qc-bench: index construction exceeded budget (%.1fs > %.1fs)\n",
			ib.CatalogSeconds+ib.NetworkSeconds+ib.IndexBuildSeconds, ib.BudgetSeconds)
		os.Exit(1)
	}
	if sb == nil {
		return
	}
	if !sb.ChecksumMatch {
		fmt.Fprintln(os.Stderr, "qc-bench: snapshot round trip changed the index checksum")
		os.Exit(1)
	}
	if !sb.MappedChecksumMatch {
		fmt.Fprintln(os.Stderr, "qc-bench: mapped snapshot load changed the index checksum")
		os.Exit(1)
	}
	if *sharded && !sb.ShardedFileMatch {
		fmt.Fprintln(os.Stderr, "qc-bench: sharded build is not byte-identical to the in-heap save")
		os.Exit(1)
	}
	if sb.LoadSeconds > sb.BuildSeconds/10 {
		fmt.Fprintf(os.Stderr, "qc-bench: snapshot load %.2fs exceeds a tenth of the %.2fs build\n",
			sb.LoadSeconds, sb.BuildSeconds)
		os.Exit(1)
	}
	if sb.MappedLoadSeconds >= sb.LoadSeconds {
		fmt.Fprintf(os.Stderr, "qc-bench: mapped load %.2fs did not beat the read-path load %.2fs\n",
			sb.MappedLoadSeconds, sb.LoadSeconds)
		os.Exit(1)
	}
}

// writeReport marshals the report to path, creating parent directories.
func writeReport(rep Report, path string) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fail(err)
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "qc-bench: wrote %s\n", path)
}

// heapUsed returns heap-in-use after a forced collection, so phase deltas
// measure retained structures rather than garbage.
func heapUsed() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runIndexBench measures network construction and the term-index footprint
// at one scale: catalog build, network+dictionary build, eager index build
// and heap-in-use around each phase. With a non-empty snapFile it also
// rounds the network through a snapshot (save, stat, load, checksum —
// copying and memory-mapped) and returns that leg as a SnapshotBench;
// withSharded additionally reruns the whole construction through the
// shard-and-spill pipeline and byte-compares the two files.
func runIndexBench(scaleName string, seed uint64, budget time.Duration, snapFile string, withSharded bool, shardSize int) (*IndexBench, *SnapshotBench, error) {
	scale, err := experiments.ParseScale(scaleName)
	if err != nil {
		return nil, nil, err
	}
	par := experiments.ParamsFor(scale)
	ib := &IndexBench{
		Scale: scaleName, Peers: par.GnutellaPeers, Objects: par.UniqueObjects,
		WithinBudget: true,
	}
	bcfg := par.Population(seed)

	fmt.Fprintf(os.Stderr, "qc-bench: index section, scale %s (%d peers, %d objects)\n",
		scaleName, par.GnutellaPeers, par.UniqueObjects)
	ib.HeapBeforeBytes = heapUsed()
	t0 := time.Now()
	cat, err := catalog.Build(bcfg.Catalog)
	if err != nil {
		return nil, nil, err
	}
	ib.CatalogSeconds = time.Since(t0).Seconds()
	ib.Placements = cat.TotalPlacements
	t0 = time.Now()
	nw, err := gnet.NewFromCatalog(bcfg.Network, cat)
	if err != nil {
		return nil, nil, err
	}
	ib.NetworkSeconds = time.Since(t0).Seconds()
	ib.HeapAfterBuildBytes = heapUsed()
	t0 = time.Now()
	if err := nw.BuildIndexes(0); err != nil {
		return nil, nil, err
	}
	ib.IndexBuildSeconds = time.Since(t0).Seconds()
	ib.HeapAfterIndexBytes = heapUsed()

	st, err := nw.IndexStats()
	if err != nil {
		return nil, nil, err
	}
	d := nw.TermDict()
	ib.DictTerms = st.DictTerms
	ib.DictHeapBytes = d.HeapBytes()
	ib.IndexTerms = st.IndexTerms
	ib.Postings = st.Postings
	ib.InternedHeapBytes = st.HeapBytes // includes the shared dictionary
	fmt.Fprintf(os.Stderr, "qc-bench: catalog %.2fs, network %.2fs, indexes %.2fs; %d dict terms, interned index+dict ~%.1f MiB\n",
		ib.CatalogSeconds, ib.NetworkSeconds, ib.IndexBuildSeconds,
		ib.DictTerms, float64(ib.InternedHeapBytes)/(1<<20))

	if budget > 0 {
		ib.BudgetSeconds = budget.Seconds()
		total := ib.CatalogSeconds + ib.NetworkSeconds + ib.IndexBuildSeconds
		ib.WithinBudget = total <= ib.BudgetSeconds
	}

	runtime.KeepAlive(nw)
	runtime.KeepAlive(cat)

	if snapFile == "" {
		return ib, nil, nil
	}
	sb := &SnapshotBench{
		File: snapFile, Scale: scaleName,
		BuildSeconds:     ib.CatalogSeconds + ib.NetworkSeconds + ib.IndexBuildSeconds,
		ArenaBytes:       st.ArenaBytes,
		FlatPostingBytes: 4 * uint64(st.Postings),
	}
	if sb.ArenaBytes > 0 {
		sb.ArenaCompression = float64(sb.FlatPostingBytes) / float64(sb.ArenaBytes)
	}
	wantSum, err := nw.IndexChecksum()
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	if _, err := snapshot.Save(snapFile, nw, 0); err != nil {
		return nil, nil, err
	}
	sb.SaveSeconds = time.Since(t0).Seconds()
	fi, err := os.Stat(snapFile)
	if err != nil {
		return nil, nil, err
	}
	sb.FileBytes = fi.Size()
	t0 = time.Now()
	restored, err := snapshot.Load(snapFile, 0)
	if err != nil {
		return nil, nil, err
	}
	sb.LoadSeconds = time.Since(t0).Seconds()
	if sb.LoadSeconds > 0 {
		sb.LoadSpeedup = sb.BuildSeconds / sb.LoadSeconds
	}
	gotSum, err := restored.IndexChecksum()
	if err != nil {
		return nil, nil, err
	}
	sb.ChecksumMatch = gotSum == wantSum
	restored = nil
	runtime.GC() // release the copying restore before the mapped leg
	fmt.Fprintf(os.Stderr, "qc-bench: snapshot save %.2fs, load %.2fs (%.1fx faster than the %.2fs build), %.1f MiB file, arena %.1f MiB vs %.1f MiB flat (%.2fx), checksum match=%v\n",
		sb.SaveSeconds, sb.LoadSeconds, sb.LoadSpeedup, sb.BuildSeconds,
		float64(sb.FileBytes)/(1<<20), float64(sb.ArenaBytes)/(1<<20),
		float64(sb.FlatPostingBytes)/(1<<20), sb.ArenaCompression, sb.ChecksumMatch)

	// Mapped leg: the same file, restored zero-copy.
	t0 = time.Now()
	mapped, err := snapshot.LoadMapped(snapFile, 0)
	if err != nil {
		return nil, nil, err
	}
	sb.MappedLoadSeconds = time.Since(t0).Seconds()
	if sb.MappedLoadSeconds > 0 {
		sb.MappedSpeedupVsLoad = sb.LoadSeconds / sb.MappedLoadSeconds
	}
	mappedSum, err := mapped.IndexChecksum()
	if err != nil {
		return nil, nil, err
	}
	sb.MappedChecksumMatch = mappedSum == wantSum
	if err := mapped.Close(); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "qc-bench: mapped load %.2fs (%.1fx faster than the %.2fs read-path load), checksum match=%v\n",
		sb.MappedLoadSeconds, sb.MappedSpeedupVsLoad, sb.LoadSeconds, sb.MappedChecksumMatch)

	// Sharded identity leg: the same configuration built straight to disk
	// must reproduce the in-heap save bit for bit.
	if withSharded {
		sb.ShardSize = shardSize
		shardPath := snapFile + ".sharded"
		t0 = time.Now()
		bcfg.ShardSize = shardSize
		sstats, err := snapshot.BuildSharded(shardPath, bcfg)
		if err != nil {
			return nil, nil, err
		}
		sb.ShardedBuildSeconds = time.Since(t0).Seconds()
		wantHash, err := fileSHA256(snapFile)
		if err != nil {
			return nil, nil, err
		}
		gotHash, err := fileSHA256(shardPath)
		if err != nil {
			return nil, nil, err
		}
		sb.ShardedFileMatch = gotHash == wantHash && sstats.FileBytes == sb.FileBytes
		os.Remove(shardPath)
		fmt.Fprintf(os.Stderr, "qc-bench: sharded build %.2fs (%d shards of %d peers), file match=%v\n",
			sb.ShardedBuildSeconds, sstats.Shards, sstats.ShardSize, sb.ShardedFileMatch)
	}
	return ib, sb, nil
}

// runShardedBench is the -sharded-only smoke: shard-and-spill the whole
// population straight into snapFile, restore it zero-copy through the
// memory mapping, probe it with floods, and record peak RSS.
func runShardedBench(scaleName string, seed uint64, shardSize int, budget time.Duration, rssCeilingMB int, snapFile string) (*ShardedBench, error) {
	scale, err := experiments.ParseScale(scaleName)
	if err != nil {
		return nil, err
	}
	par := experiments.ParamsFor(scale)
	hb := &ShardedBench{
		Scale: scaleName, Peers: par.GnutellaPeers, Objects: par.UniqueObjects,
		WithinBudget: true, WithinRSSCeiling: true,
	}
	bcfg := par.Population(seed)
	bcfg.ShardSize = shardSize
	fmt.Fprintf(os.Stderr, "qc-bench: sharded-only build, scale %s (%d peers, %d objects), shard size %d\n",
		scaleName, par.GnutellaPeers, par.UniqueObjects, shardSize)
	t0 := time.Now()
	stats, err := snapshot.BuildSharded(snapFile, bcfg)
	if err != nil {
		return nil, err
	}
	hb.BuildSeconds = time.Since(t0).Seconds()
	hb.Placements = stats.Placements
	hb.ShardSize = stats.ShardSize
	hb.Shards = stats.Shards
	hb.DictTerms = stats.DictTerms
	hb.FileBytes = stats.FileBytes
	fmt.Fprintf(os.Stderr, "qc-bench: sharded build %.1fs, %d shards of %d peers, %d placements, %.1f MiB file\n",
		hb.BuildSeconds, hb.Shards, hb.ShardSize, hb.Placements, float64(hb.FileBytes)/(1<<20))

	t0 = time.Now()
	nw, err := snapshot.LoadMapped(snapFile, 0)
	if err != nil {
		return nil, err
	}
	hb.MappedLoadSeconds = time.Since(t0).Seconds()
	sum, err := nw.IndexChecksum()
	if err != nil {
		return nil, err
	}
	hb.IndexChecksum = fmt.Sprintf("%x", sum)
	// Flood probe: real queries over the mapped substrate. Origins and
	// criteria are drawn deterministically from the restored libraries.
	ctx := nw.NewFloodCtx()
	for trial := 0; trial < 8; trial++ {
		origin := trial * (len(nw.Peers)/8 + 1) % len(nw.Peers)
		criteria := ""
		for _, p := range nw.Peers[origin:] {
			if len(p.Library) > 0 {
				criteria = p.Library[trial%len(p.Library)].Name
				break
			}
		}
		res, err := ctx.Flood(origin, criteria, 4, rng.New(uint64(trial)))
		if err != nil {
			return nil, err
		}
		hb.FloodPeersReached += res.PeersReached
		hb.FloodResults += res.TotalResults
	}
	if err := nw.Close(); err != nil {
		return nil, err
	}
	hb.PeakRSSMB = float64(peakRSSBytes()) / (1 << 20)
	if budget > 0 {
		hb.BudgetSeconds = budget.Seconds()
		hb.WithinBudget = hb.BuildSeconds+hb.MappedLoadSeconds <= hb.BudgetSeconds
	}
	if rssCeilingMB > 0 {
		hb.RSSCeilingMB = float64(rssCeilingMB)
		hb.WithinRSSCeiling = hb.PeakRSSMB <= hb.RSSCeilingMB
	}
	fmt.Fprintf(os.Stderr, "qc-bench: mapped load %.1fs, checksum %s, floods reached %d peers with %d results, peak RSS %.0f MiB\n",
		hb.MappedLoadSeconds, hb.IndexChecksum, hb.FloodPeersReached, hb.FloodResults, hb.PeakRSSMB)
	return hb, nil
}

// peakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSBytes() uint64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) >= 1 {
			if kb, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
				return kb * 1024
			}
		}
	}
	return 0
}

// fileSHA256 streams a file through SHA-256 (the files compared here are
// GiB-sized at paper scale; no need to hold both in memory).
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<20)); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-bench:", err)
	os.Exit(1)
}
