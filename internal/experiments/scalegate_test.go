package experiments

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
	"querycentric/internal/snapshot"
)

// scaleGate names the big TestScaleGate row to run after the tiny one:
// minutes of wall-clock and GBs of memory and disk (under TMPDIR), so only
// `make scalefull-smoke` / `make scale1m-smoke` pass it.
var scaleGate = flag.String("scale-gate", "", "TestScaleGate: also run this row (full|1m)")

// Limits of the two big rows, ~2x over the single-CPU measurements in
// EXPERIMENTS.md. Each has exactly one value in use, so they are constants
// beside the assertions rather than flags.
const (
	fullShardSize = 8192
	fullBudget    = 10 * time.Minute // in-heap catalog + network + indexes; measured 125 s
	m1ShardSize   = 65536
	m1Budget      = 6 * time.Minute // sharded build + mapped load; measured 144 s
	m1RSSCeiling  = 6144 << 20      // process VmHWM in bytes; measured 3086 MiB
)

// gateLimits are a row's thresholds. A zero budget switches every
// wall-clock assertion off (the tiny row: milliseconds are noise), a zero
// ceiling the RSS one.
type gateLimits struct {
	budget     time.Duration
	rssCeiling uint64
}

// gateRun is what one row measured.
type gateRun struct {
	inHeap bool

	build      time.Duration // inHeap: catalog + network + indexes; else the sharded build
	load       time.Duration // inHeap: copying snapshot.Load of the in-heap save
	mappedLoad time.Duration // snapshot.LoadMapped of the row's file

	freshSum, copiedSum, mappedSum uint64 // index checksums
	heapSHA, shardedSHA            string // inHeap: SHA-256 of the in-heap save and of the sharded build's file
	shardedFile                    string

	floodResults int
	peakRSS      uint64 // VmHWM; 0 where /proc is unavailable
}

// failures lists every gate the run violates under lim, each message led
// by the name of its check.
func (r *gateRun) failures(lim gateLimits) (fails []string) {
	add := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	if r.inHeap {
		if r.copiedSum != r.freshSum {
			add("checksum: copying load restored index %x, the fresh build has %x", r.copiedSum, r.freshSum)
		}
		if r.mappedSum != r.freshSum {
			add("checksum: mapped load restored index %x, the fresh build has %x", r.mappedSum, r.freshSum)
		}
		if r.shardedSHA != r.heapSHA {
			add("identity: sharded build (sha256 %s) is not byte-identical to the in-heap save (%s)", r.shardedSHA, r.heapSHA)
		}
	}
	if r.floodResults == 0 {
		add("floods: probes over the mapped network returned no results")
	}
	if lim.budget > 0 {
		// The budget covers the row's own construction path: the in-heap
		// build, or — where nothing is built in heap — the sharded build
		// plus the mapped load that makes it usable.
		spent := r.build
		if !r.inHeap {
			spent += r.mappedLoad
		}
		if spent > lim.budget {
			add("budget: construction took %v, budget %v", spent, lim.budget)
		}
		if r.inHeap && r.load > r.build/10 {
			add("load: copying load %v exceeds a tenth of the %v build", r.load, r.build)
		}
		if r.inHeap && r.mappedLoad >= r.load {
			add("mapped: mapped load %v did not beat the copying load %v", r.mappedLoad, r.load)
		}
	}
	if lim.rssCeiling > 0 && r.peakRSS > lim.rssCeiling {
		add("rss: peak RSS %d MiB exceeds the %d MiB ceiling", r.peakRSS>>20, lim.rssCeiling>>20)
	}
	return fails
}

// TestScaleGate is the construction gate at three scales. A row builds the
// calibrated population (Params.Population), rounds it through a snapshot —
// in-heap save, copying load, mapped load, shard-and-spill rebuild — and
// probes the mapping with real floods. The tiny row runs in every `go test`
// with no wall-clock or memory limit, and shows each check able to fail;
// `full` is the paper-scale gate and `1m` the million-peer one, whose
// substrate never fits on the heap and is built sharded only.
func TestScaleGate(t *testing.T) {
	rows := []struct {
		name      string
		scale     Scale
		shardSize int
		inHeap    bool
		lim       gateLimits
	}{
		{"tiny", ScaleTiny, 32, true, gateLimits{}},
		{"full", ScaleFull, fullShardSize, true, gateLimits{budget: fullBudget}},
		{"1m", Scale1M, m1ShardSize, false, gateLimits{budget: m1Budget, rssCeiling: m1RSSCeiling}},
	}
	known := *scaleGate == ""
	for _, row := range rows {
		known = known || row.name == *scaleGate
		if row.name != "tiny" && row.name != *scaleGate {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			r := measureGate(t, row.scale, row.shardSize, row.inHeap)
			for _, f := range r.failures(row.lim) {
				t.Error(f)
			}
			if row.name != "tiny" {
				return
			}
			// Each check must be able to fail: provoke the cheap ones on
			// this row's own measurements.
			t.Run("flipped byte fails identity", func(t *testing.T) {
				b, err := os.ReadFile(r.shardedFile)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 1
				if err := os.WriteFile(r.shardedFile, b, 0o644); err != nil {
					t.Fatal(err)
				}
				bad := *r
				bad.shardedSHA = fileSHA256(t, r.shardedFile)
				wantFailure(t, bad.failures(row.lim), "identity:")
			})
			t.Run("1ns budget fails budget", func(t *testing.T) {
				wantFailure(t, r.failures(gateLimits{budget: time.Nanosecond}), "budget:")
			})
			t.Run("1MiB ceiling fails rss", func(t *testing.T) {
				if r.peakRSS == 0 {
					t.Skip("no VmHWM on this platform")
				}
				wantFailure(t, r.failures(gateLimits{rssCeiling: 1 << 20}), "rss:")
			})
		})
	}
	if !known {
		t.Fatalf("-scale-gate %q: want full or 1m", *scaleGate)
	}
}

func wantFailure(t *testing.T, fails []string, check string) {
	t.Helper()
	for _, f := range fails {
		if strings.HasPrefix(f, check) {
			return
		}
	}
	t.Errorf("no %q failure among %q", check, fails)
}

// measureGate runs one row's legs: in-heap build, save, copying load, mapped
// load + flood probe, sharded rebuild — or, with inHeap false, sharded build
// then mapped load + probe.
func measureGate(t *testing.T, scale Scale, shardSize int, inHeap bool) *gateRun {
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	bcfg := ParamsFor(scale).Population(42)
	bcfg.ShardSize = shardSize
	r := &gateRun{inHeap: inHeap, shardedFile: filepath.Join(dir, "sharded.qcsnap")}
	file := r.shardedFile

	if inHeap {
		file = filepath.Join(dir, "heap.qcsnap")
		t0 := time.Now()
		cat, err := catalog.BuildWorkers(bcfg.Catalog, 0)
		check(err)
		nw, err := gnet.NewFromCatalogWorkers(bcfg.Network, cat, 0)
		check(err)
		check(nw.BuildIndexes(0))
		r.build = time.Since(t0)
		placements := cat.TotalPlacements
		cat = nil
		st, err := nw.IndexStats()
		check(err)
		r.freshSum, err = nw.IndexChecksum()
		check(err)
		t0 = time.Now()
		size, err := snapshot.Save(file, nw, 0)
		check(err)
		save := time.Since(t0)
		nw = nil
		t.Logf("in-heap build %v: %d placements, %d dict terms, %d postings, index+dict ~%d MiB (arenas %d MiB vs %d MiB flat); save %v, %d MiB file",
			r.build, placements, st.DictTerms, st.Postings, st.HeapBytes>>20,
			st.ArenaBytes>>20, 4*st.Postings>>20, save, size>>20)
		// Only the file is needed from here: hand the built heap back to
		// the OS so the copying load's peak does not stack on it.
		runtime.GC()
		debug.FreeOSMemory()

		t0 = time.Now()
		copied, err := snapshot.Load(file, 0)
		check(err)
		r.load = time.Since(t0)
		r.copiedSum, err = copied.IndexChecksum()
		check(err)
		t.Logf("copying load %v (%.1fx faster than the build)", r.load, r.build.Seconds()/r.load.Seconds())
		copied = nil
		runtime.GC() // release the loaded heap before the mapped leg
	} else {
		t0 := time.Now()
		st, err := snapshot.BuildSharded(file, bcfg)
		check(err)
		r.build = time.Since(t0)
		t.Logf("sharded build %v: %d shards of %d peers, %d placements, %d dict terms, %d MiB file",
			r.build, st.Shards, st.ShardSize, st.Placements, st.DictTerms, st.FileBytes>>20)
	}

	t0 := time.Now()
	mapped, err := snapshot.LoadMapped(file, 0)
	check(err)
	r.mappedLoad = time.Since(t0)
	r.mappedSum, err = mapped.IndexChecksum()
	check(err)
	// Flood probe: real queries over the mapped substrate, origins and
	// criteria drawn deterministically from the restored libraries.
	ctx, reached := mapped.NewFloodCtx(), 0
	for trial := 0; trial < 8; trial++ {
		origin := trial * (len(mapped.Peers)/8 + 1) % len(mapped.Peers)
		criteria := ""
		for _, p := range mapped.Peers[origin:] {
			if len(p.Library) > 0 {
				criteria = p.Library[trial%len(p.Library)].Name
				break
			}
		}
		res, err := ctx.Flood(origin, criteria, 4, rng.New(uint64(trial)))
		check(err)
		reached += res.PeersReached
		r.floodResults += res.TotalResults
	}
	check(mapped.Close())
	t.Logf("mapped load %v, index checksum %x, floods reached %d peers with %d results",
		r.mappedLoad, r.mappedSum, reached, r.floodResults)

	if inHeap {
		// The same configuration built straight to disk in bounded shards
		// must reproduce the in-heap save bit for bit.
		t0 = time.Now()
		st, err := snapshot.BuildSharded(r.shardedFile, bcfg)
		check(err)
		t.Logf("sharded build %v (%d shards of %d peers)", time.Since(t0), st.Shards, st.ShardSize)
		r.heapSHA, r.shardedSHA = fileSHA256(t, file), fileSHA256(t, r.shardedFile)
	}
	r.peakRSS = peakRSSBytes()
	t.Logf("peak RSS %d MiB", r.peakRSS>>20)
	return r
}

// peakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSBytes() uint64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) >= 1 {
				kb, _ := strconv.ParseUint(fields[0], 10, 64)
				return kb * 1024
			}
		}
	}
	return 0
}

// fileSHA256 streams a file through SHA-256 (GiB-sized at paper scale).
func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<20)); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
