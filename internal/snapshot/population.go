package snapshot

import (
	"fmt"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
)

// OpenPopulation produces the Gnutella population a run works on, from
// wherever the arguments say it lives: restored through a read-only memory
// mapping of the snapshot at load when that is set (re-saved to save when
// that is set too), else built shard by shard straight into save and mapped
// back from that file when save is set — the whole substrate is never
// resident during construction — else built in-heap from cfg's catalog and
// network recipes. A mapped network owns its mapping: the caller closes it
// once nothing views the population's strings. Each leg is timed as an env/…
// phase on reg; a nil reg records nothing.
func OpenPopulation(load, save string, cfg BuildConfig, reg *obs.Registry) (*gnet.Network, error) {
	switch {
	case load != "":
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
	case save != "":
		stop := reg.StartPhase("env/snapshot-build-sharded")
		_, err := BuildSharded(save, cfg)
		stop()
		if err != nil {
			return nil, fmt.Errorf("sharded snapshot build: %w", err)
		}
		stop = reg.StartPhase("env/snapshot-load")
		nw, err := LoadMapped(save, cfg.Workers)
		stop()
		if err != nil {
			return nil, fmt.Errorf("loading sharded snapshot: %w", err)
		}
		return nw, nil
	}
	stop := reg.StartPhase("env/catalog")
	cat, err := catalog.BuildWorkers(cfg.Catalog, cfg.Workers)
	stop()
	if err != nil {
		return nil, fmt.Errorf("building catalog: %w", err)
	}
	stop = reg.StartPhase("env/network")
	nw, err := gnet.NewFromCatalogWorkers(cfg.Network, cat, cfg.Workers)
	stop()
	if err != nil {
		return nil, fmt.Errorf("building network: %w", err)
	}
	return nw, nil
}
