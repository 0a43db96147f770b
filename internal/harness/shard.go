package harness

import "pbecc/internal/sim"

// placement pins every scenario entity to a shard of one sim.Cluster.
//
// The shard topology is a pure function of the scenario: cells that any
// single device spans (LTE carrier aggregation, EN-DC dual connectivity)
// are entangled into one shard by union-find, every UE, monitor, sender
// and receiver is pinned to the shard of its (first) cell, and the wired
// core - the SFU relay and its ingest - gets a shard of its own. Because
// the topology never depends on the worker count, a sharded scenario's
// output is byte-identical for any Scenario.Shards value; the knob only
// sets how many shards advance concurrently inside each window.
//
// An unsharded scenario is the degenerate one-shard cluster, which the
// sim layer guarantees is bit-compatible with the bare engine the
// harness used before sharding existed. Placement assumes a scenario
// that passed Validate: every cell a UE names is declared.
type placement struct {
	cluster *sim.Cluster
	byCell  map[int]*sim.Shard
	core    *sim.Shard
}

func newPlacement(sc *Scenario, a *Arena) *placement {
	cl := a.cluster(sc.Seed)
	cl.SetWorkers(max(sc.Shards, 1))
	if sc.Series {
		cl.SetSeriesRecorder(a.seriesRecorder())
	}
	pl := &placement{cluster: cl, byCell: map[int]*sim.Shard{}}
	cells := sc.cellIDs()

	if !sc.Sharded {
		s := cl.AddShard()
		for _, id := range cells {
			pl.byCell[id] = s
		}
		pl.core = s
		return pl
	}

	// Union-find over cell IDs: each device merges every carrier it
	// touches, so no device ever spans a shard boundary.
	parent := map[int]int{}
	for _, id := range cells {
		parent[id] = id
	}
	var find func(int) int
	find = func(x int) int {
		if p := parent[x]; p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	for _, us := range sc.UEs {
		ids := us.cellIDs()
		for i := 1; i < len(ids); i++ {
			ra, rb := find(ids[0]), find(ids[i])
			if ra != rb {
				parent[rb] = ra
			}
		}
	}

	// One shard per connected group, assigned in cell declaration order
	// so the topology (and with it every shard engine seed) is
	// deterministic.
	roots := map[int]*sim.Shard{}
	for _, id := range cells {
		r := find(id)
		if roots[r] == nil {
			roots[r] = cl.AddShard()
		}
		pl.byCell[id] = roots[r]
	}

	if sc.SFU {
		// The relay fans out to subscribers on many cell shards; giving
		// it a dedicated wired-core shard keeps every leg a true
		// cross-shard boundary instead of serializing on one cell.
		pl.core = cl.AddShard()
	} else {
		pl.core = cl.Shards()[0]
	}
	return pl
}

// ueShard returns the shard a UE (and everything terminating on it) is
// pinned to: the shard of its primary cell.
func (pl *placement) ueShard(us *UESpec) *sim.Shard {
	if len(us.CellIDs) > 0 {
		return pl.byCell[us.CellIDs[0]]
	}
	return pl.byCell[us.NRCellIDs[0]]
}
