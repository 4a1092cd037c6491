package snapshot

import (
	"fmt"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
)

// OpenPopulation produces the Gnutella population a run works on, from
// wherever the arguments say it lives: restored from the snapshot at load
// when that is set (through a read-only memory mapping when mmap), else
// built shard by shard straight into save and read back from that
// byte-identical file when cfg.ShardSize is positive — the whole substrate
// is never resident during construction — else built in-heap from cfg's
// catalog and network recipes. Unless the sharded builder just wrote it, the
// population is then saved to save when set, after a fresh build and after
// a load alike. Each leg is timed as an env/… phase on reg; a nil reg
// records nothing.
func OpenPopulation(load, save string, mmap bool, cfg BuildConfig, reg *obs.Registry) (*gnet.Network, error) {
	var nw *gnet.Network
	switch {
	case load != "":
		read := Load
		if mmap {
			read = LoadMapped
		}
		stop := reg.StartPhase("env/snapshot-load")
		var err error
		nw, err = read(load, cfg.Workers)
		stop()
		if err != nil {
			return nil, fmt.Errorf("loading snapshot: %w", err)
		}
	case cfg.ShardSize > 0 && save != "":
		stop := reg.StartPhase("env/snapshot-build-sharded")
		_, err := BuildSharded(save, cfg)
		stop()
		if err != nil {
			return nil, fmt.Errorf("sharded snapshot build: %w", err)
		}
		stop = reg.StartPhase("env/snapshot-load")
		nw, err = Load(save, cfg.Workers)
		stop()
		if err != nil {
			return nil, fmt.Errorf("loading sharded snapshot: %w", err)
		}
		return nw, nil // save already holds exactly this population
	default:
		stop := reg.StartPhase("env/catalog")
		cat, err := catalog.BuildWorkers(cfg.Catalog, cfg.Workers)
		stop()
		if err != nil {
			return nil, fmt.Errorf("building catalog: %w", err)
		}
		stop = reg.StartPhase("env/network")
		nw, err = gnet.NewFromCatalogWorkers(cfg.Network, cat, cfg.Workers)
		stop()
		if err != nil {
			return nil, fmt.Errorf("building network: %w", err)
		}
	}
	if save != "" {
		stop := reg.StartPhase("env/snapshot-save")
		_, err := Save(save, nw, cfg.Workers)
		stop()
		if err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
	}
	return nw, nil
}
