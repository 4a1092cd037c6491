package snapshot

import (
	"fmt"
	"os"
	"path/filepath"

	"querycentric/internal/gnet"
	"querycentric/internal/obs"
)

// OpenPopulation produces the Gnutella population a run works on, from
// wherever the arguments say it lives: restored through a read-only memory
// mapping of the snapshot at load when that is set (re-saved to save when
// that is set too), else built shard by shard straight into a snapshot file
// and mapped back from it — the whole substrate is never resident during
// construction. That file is save when it is set, else a temporary file
// under os.TempDir, removed before OpenPopulation returns (the mapping
// outlives its name). A mapped network owns its mapping: the caller closes
// it once nothing views the population's strings. Each leg is timed as an
// env/… phase on reg; a nil reg records nothing.
func OpenPopulation(load, save string, cfg BuildConfig, reg *obs.Registry) (*gnet.Network, error) {
	if load != "" {
		stop := reg.StartPhase("env/snapshot-load")
		nw, err := LoadMapped(load, cfg.Workers)
		stop()
		if err != nil {
			return nil, fmt.Errorf("loading snapshot: %w", err)
		}
		if save != "" {
			stop := reg.StartPhase("env/snapshot-save")
			_, err := Save(save, nw, cfg.Workers)
			stop()
			if err != nil {
				nw.Close()
				return nil, fmt.Errorf("saving snapshot: %w", err)
			}
		}
		return nw, nil
	}
	path := save
	if path == "" {
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
	stop = reg.StartPhase("env/snapshot-load")
	nw, err := LoadMapped(path, cfg.Workers)
	stop()
	if err != nil {
		return nil, fmt.Errorf("loading sharded snapshot: %w", err)
	}
	return nw, nil
}
