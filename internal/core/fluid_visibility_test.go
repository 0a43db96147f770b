// The fluid background tier claims PBE-CC cannot tell a fluid session
// from a packet user: both surface as data grants on the control
// channel. This file pins that contract end to end - a real LTE cell, a
// fluid.CellProcess as its background source, and a Monitor decoding the
// cell's reports - from an external test package because fluid imports
// core for the window constant.
package core_test

import (
	"testing"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/fluid"
	"pbecc/internal/lte"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

func newVisibilityMonitor(cell *ran.Cell) *core.Monitor {
	mon := core.NewMonitor(61)
	mcs := phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1}
	mon.AttachCell(core.CellInfo{
		ID:   cell.ID,
		NPRB: cell.NPRB,
		Rate: func() float64 { return mcs.BitsPerPRB() },
		BER:  func() float64 { return 0 },
	})
	cell.AttachMonitor(mon.OnSubframe)
	return mon
}

// TestMonitorCountsFluidCompetitor: an always-on fluid session must pass
// the monitor's control-traffic filter and register as a competing user,
// halving the idle share the monitor hands its own flow (Eqn 3's N).
func TestMonitorCountsFluidCompetitor(t *testing.T) {
	eng := sim.New(1)
	cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	mon := newVisibilityMonitor(cell)

	session := fluid.Session{
		RNTI:    900,
		MCS:     phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1},
		RateBps: 200e6, // saturates the cell: backlogged every window
		On:      time.Hour,
		Off:     time.Millisecond,
	}
	cell.SetBackground(fluid.NewCellProcess([]fluid.Session{session}, 0, 0))

	eng.RunUntil(100 * time.Millisecond)
	if n := mon.ActiveUsers(1); n != 2 {
		t.Fatalf("ActiveUsers = %d, want 2 (self + fluid session)", n)
	}
	// The fluid session holds essentially the whole cell, so the
	// monitor's fair share is half the idle capacity - far below the
	// empty-cell estimate.
	idle := 100 * session.MCS.BitsPerPRB()
	if fs := mon.CellFairShare(1); fs > idle*0.55 {
		t.Fatalf("fair share %v did not drop under fluid contention (idle estimate %v)", fs, idle)
	}
}

// TestMonitorIgnoresIdleFluidSession: a fluid session in its off phase
// generates no grants, so the monitor must keep treating the cell as
// idle - the envelope's silence is as visible as its load.
func TestMonitorIgnoresIdleFluidSession(t *testing.T) {
	eng := sim.New(1)
	cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	mon := newVisibilityMonitor(cell)

	session := fluid.Session{
		RNTI:    900,
		MCS:     phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1},
		RateBps: 200e6,
		On:      time.Millisecond,
		Off:     time.Hour,
		Phase:   time.Second, // never starts within the run
	}
	cell.SetBackground(fluid.NewCellProcess([]fluid.Session{session}, 0, 0))

	eng.RunUntil(100 * time.Millisecond)
	if n := mon.ActiveUsers(1); n != 1 {
		t.Fatalf("ActiveUsers = %d, want 1 (self only)", n)
	}
}
