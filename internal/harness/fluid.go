package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pbecc/internal/fluid"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
)

// FluidSpec configures a scenario's fluid background tier (see
// internal/fluid): aggregate rate-envelope sessions bound to real cells
// through the scheduler's BackgroundSource hook, plus an optional
// modeled-only population with no packet-level counterpart at all.
type FluidSpec struct {
	// Sessions maps a real cell's ID to the background sessions bound to
	// it. They compete in the cell's water-fill and appear on its control
	// channel, but generate no packet events.
	Sessions map[int][]fluid.Session

	// ModeledCells x ModeledUsersPerCell sizes the modeled-only tier.
	// Run draws the population on its own goroutine, beside the cluster,
	// from a seed derived from the scenario seed, so Scenario stays cheap
	// to build: a million-user population materializes only when the
	// scenario runs for at least one envelope window.
	ModeledCells        int
	ModeledUsersPerCell int
}

// validate names the first field of the spec that would otherwise run
// silently wrong: sessions bound to a cell the scenario does not declare
// (setupFluid walks declared cells only), a negative on or off time, and
// a modeled tier with a negative size or fewer than one user per cell.
func (fl *FluidSpec) validate(isLTE map[int]bool) error {
	ids := make([]int, 0, len(fl.Sessions))
	for id := range fl.Sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if _, ok := isLTE[id]; !ok {
			return fmt.Errorf("fluid sessions are bound to unknown cell %d", id)
		}
		for _, s := range fl.Sessions[id] {
			if s.On < 0 || s.Off < 0 {
				return fmt.Errorf("fluid session RNTI %d on cell %d has a negative on or off time", s.RNTI, id)
			}
		}
	}
	switch {
	case fl.ModeledCells < 0:
		return fmt.Errorf("fluid ModeledCells %d is negative", fl.ModeledCells)
	case fl.ModeledUsersPerCell < 0:
		return fmt.Errorf("fluid ModeledUsersPerCell %d is negative", fl.ModeledUsersPerCell)
	case fl.ModeledCells > 0 && fl.ModeledUsersPerCell < 1:
		return fmt.Errorf("fluid ModeledUsersPerCell is 0 for %d ModeledCells; want at least 1", fl.ModeledCells)
	}
	return nil
}

// addFluidSession converts one would-be background UE into a fluid
// session on its primary cell: same RNTI, and the MCS the UE's static
// channel would report (the family default CQI tables - 64-QAM LTE,
// 256-QAM NR - so the control channel shows the grant a packet user at
// the same RSSI would get).
func addFluidSession(sc *Scenario, us *UESpec, rate float64, on, off, phase time.Duration) {
	if sc.Fluid == nil {
		sc.Fluid = &FluidSpec{Sessions: map[int][]fluid.Session{}}
	}
	table, cellID := phy.Table64QAM, 0
	if len(us.CellIDs) > 0 {
		cellID = us.CellIDs[0]
	} else {
		cellID = us.NRCellIDs[0]
		table = phy.Table256QAM
	}
	sc.Fluid.Sessions[cellID] = append(sc.Fluid.Sessions[cellID], fluid.Session{
		RNTI:    us.RNTI,
		MCS:     phy.MCSFromSINR(phy.SINRFromRSSI(us.RSSI), table),
		RateBps: rate,
		On:      on,
		Off:     off,
		Phase:   phase,
	})
}

// fluidRuntime holds a running scenario's fluid processes for post-run
// stats collection, in deterministic (cell declaration) order, and the
// modeled tier's goroutine.
type fluidRuntime struct {
	procs []*fluid.CellProcess

	// modeled is the modeled tier's accounting. Its goroutine writes it
	// and closes done; a panic there is kept in failed, for stats to
	// raise on the caller's goroutine.
	modeled fluid.Stats
	done    chan struct{}
	failed  any
}

// setupFluid binds the spec's cell-bound sessions to their cells and
// starts the modeled tier. Envelopes update every fluid.DefaultWindow
// (the PBE monitor's smoothing window), and a cell-bound session's
// backlog is capped at its cell's per-user queue, the same bound a
// packet user has.
//
// The modeled tier reads nothing from the packet world and writes nothing
// back, so it runs beside the cluster on one goroutine that touches no
// engine, arena or series: it draws the population and advances each
// chunk, in chunk order, through every window that ends in the run (at
// w, 2w, ... up to and including Duration, the times an engine.Every(w)
// ticker fires before RunUntil(Duration) returns). A run shorter than one
// window draws nothing. There is one chunk per shard of the topology:
// the partition fixes the float sums, so fluid output stays byte-
// identical for any Scenario.Shards value.
//
// The goroutine counts as one of the run's Shards workers; the cluster
// advances its shards on the others (at least one). With one busy
// goroutine more than there are workers, the Go scheduler shares the
// cores out differently from run to run: in some runs the shards hold
// every core and the tier finishes alone, a third later.
func setupFluid(sc *Scenario, pl *placement, cells map[int]*ran.Cell) *fluidRuntime {
	spec := sc.Fluid
	w := fluid.DefaultWindow
	rt := &fluidRuntime{}
	for _, id := range sc.cellIDs() {
		ss := spec.Sessions[id]
		if len(ss) == 0 {
			continue
		}
		cell := cells[id]
		p := fluid.NewCellProcess(ss, w, float64(cell.PerUserQueueBytes*8))
		cell.SetBackground(p)
		rt.procs = append(rt.procs, p)
	}

	if spec.ModeledCells == 0 {
		return rt
	}
	rt.modeled = fluid.Stats{Sessions: spec.ModeledCells * spec.ModeledUsersPerCell, Cells: spec.ModeledCells}
	windows := int(sc.Duration / w)
	if windows == 0 {
		return rt
	}
	ends := make([]time.Duration, windows)
	for k := range ends {
		ends[k] = time.Duration(k+1) * w
	}
	chunks := len(pl.cluster.Shards())
	pl.cluster.SetWorkers(sc.Shards - 1)
	rt.done = make(chan struct{})
	go func() {
		defer func() {
			rt.failed = recover()
			close(rt.done)
		}()
		m := fluid.DrawModeled(spec.ModeledCells, spec.ModeledUsersPerCell, rand.New(rand.NewSource(sc.Seed*31337+17)), w)
		for _, ch := range m.Chunks(chunks) {
			ch.AdvanceWindows(ends)
		}
		rt.modeled = m.Stats()
	}()
	return rt
}

// join waits for the modeled tier's goroutine, if there is one. Run
// defers it, so the goroutine never outlives Run on any return path.
func (rt *fluidRuntime) join() {
	if rt != nil && rt.done != nil {
		<-rt.done
	}
}

// stats joins the modeled tier, raising its panic if it had one, and sums
// every fluid process's accounting in deterministic order.
func (rt *fluidRuntime) stats() *fluid.Stats {
	rt.join()
	if rt.failed != nil {
		panic(rt.failed)
	}
	s := &fluid.Stats{}
	for _, p := range rt.procs {
		s.Add(p.Stats())
	}
	s.Add(rt.modeled)
	return s
}
