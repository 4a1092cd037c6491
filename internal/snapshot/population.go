package snapshot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"querycentric/internal/gnet"
	"querycentric/internal/obs"
)

// Population is one read-only mapping of a population snapshot, from which
// any number of independent networks are restored.
type Population struct {
	data    []byte
	backing io.Closer
	workers int
}

// OpenPopulation maps the population a run works on: the snapshot at load
// when that is set (copied byte for byte to save when that is set too,
// once a restore has verified it), else one built shard by shard — the
// whole substrate is never resident — into save, or into a temporary file
// under os.TempDir that is removed before OpenPopulation returns (the
// mapping outlives its name). Restores run over cfg.Workers goroutines.
// Each leg is timed as an env/… phase on reg; a nil reg records nothing.
func OpenPopulation(load, save string, cfg BuildConfig, reg *obs.Registry) (*Population, error) {
	path := load
	if path == "" {
		if path = save; path == "" {
			dir, err := os.MkdirTemp("", "population-")
			if err != nil {
				return nil, fmt.Errorf("sharded snapshot build: %w", err)
			}
			defer os.RemoveAll(dir)
			path = filepath.Join(dir, "population.qcsnap")
		}
		stop := reg.StartPhase("env/snapshot-build-sharded")
		_, err := BuildSharded(path, cfg)
		stop()
		if err != nil {
			return nil, fmt.Errorf("sharded snapshot build: %w", err)
		}
	}
	stop := reg.StartPhase("env/snapshot-load")
	data, backing, err := mapFile(path)
	stop()
	if err != nil {
		return nil, fmt.Errorf("loading snapshot: %w", err)
	}
	p := &Population{data: data, backing: backing, workers: cfg.Workers}
	if load != "" && save != "" {
		stop := reg.StartPhase("env/snapshot-save")
		_, err := p.Network()
		if err == nil {
			_, err = writeAtomic(save, func(f *os.File) (int64, error) {
				n, err := f.Write(data)
				return int64(n), err
			})
		}
		stop()
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
	}
	return p, nil
}

// Network restores a fresh network from the population, checking every
// section digest (a damaged file fails with Load's typed errors). Its
// names, posting arenas and dictionary view the mapping; everything a
// mutation touches is its own heap copy, so no two restores share mutable
// state. The network is Borrowed and its Close is a no-op: it is valid
// until the Population is closed.
func (p *Population) Network() (*gnet.Network, error) {
	return restore(p.data, nopCloser{}, p.workers)
}

// Close unmaps the population, invalidating every network restored from
// it. Close is idempotent.
func (p *Population) Close() error { return p.backing.Close() }
