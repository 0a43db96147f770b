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
	// The population is drawn inside Run from a seed derived from the
	// scenario seed, so Scenario stays cheap to build: a million-user
	// population materializes only when the scenario runs.
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
// stats collection, in deterministic (cell declaration) order.
type fluidRuntime struct {
	procs   []*fluid.CellProcess
	modeled *fluid.Modeled
}

// setupFluid binds the spec's cell-bound sessions to their cells and
// stands up the modeled tier on the cluster's shards. Chunk-to-shard
// assignment depends only on the shard topology - itself a pure function
// of the scenario - so fluid output is byte-identical for any
// Scenario.Shards value. Envelopes update every fluid.DefaultWindow (the
// PBE monitor's smoothing window), and a cell-bound session's backlog is
// capped at its cell's per-user queue, the same bound a packet user has.
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

	if spec.ModeledCells > 0 {
		rng := rand.New(rand.NewSource(sc.Seed*31337 + 17))
		m := fluid.DrawModeled(spec.ModeledCells, spec.ModeledUsersPerCell, rng, w)
		shards := pl.cluster.Shards()
		for i, ch := range m.Chunks(len(shards)) {
			ch, eng := ch, shards[i].Engine
			eng.Every(w, func() { ch.Advance(eng.Now()) })
		}
		rt.modeled = m
	}
	return rt
}

// stats sums every fluid process's accounting in deterministic order.
func (rt *fluidRuntime) stats() *fluid.Stats {
	s := &fluid.Stats{}
	for _, p := range rt.procs {
		s.Add(p.Stats())
	}
	if rt.modeled != nil {
		s.Add(rt.modeled.Stats())
	}
	return s
}
