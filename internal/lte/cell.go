// Package lte configures the shared RAN scheduler core (package ran) as an
// FDD LTE component carrier - 1 ms subframes, the TS 36.213 RBG sizes,
// RBG-granular control grants, whole-transport-block HARQ eight subframes
// after an error with at most three retries (§3 of the paper) - and as an
// LTE UE with occupancy-driven carrier aggregation (Figure 2). It also
// holds the bit-level PDCCH rendering of a subframe report, which models
// the LTE control channel only.
//
// Together with ran it replaces the commercial cells and USRP radios of
// the paper's testbed; see DESIGN.md for the substitution argument.
package lte

import (
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// The cell, UE and report types are the shared RAN core's; the names stay
// available here for code that speaks of LTE cells and subframes.
type (
	Cell           = ran.Cell
	UE             = ran.UE
	Alloc          = ran.Alloc
	SubframeReport = ran.SubframeReport
)

// DefaultPerUserQueueBytes is the default cap on one user's downlink
// queue at a cell, modeling the finite RLC buffer of deployed base
// stations (roughly 250 ms at 50 Mbit/s).
const DefaultPerUserQueueBytes = 1_500_000

// NewCell creates an LTE cell and starts its subframe ticker on the
// engine. control may be nil for a cell without control-plane chatter.
func NewCell(eng *sim.Engine, id, nprb int, table phy.CQITable, control ran.ControlSource) *Cell {
	p := rbgSizeFor(nprb)
	return ran.NewCell(eng, ran.CellConfig{
		ID: id, NPRB: nprb, Table: table, Control: control,
		SlotsPerSubframe: 1, RBGSize: p, ControlGrantPRBs: p,
		PerUserQueueBytes: DefaultPerUserQueueBytes,
	})
}

// rbgSizeFor returns the RBG size P of 3GPP TS 36.213 Table 7.1.6.1-1.
func rbgSizeFor(nprb int) int {
	switch {
	case nprb <= 10:
		return 1
	case nprb <= 26:
		return 2
	case nprb <= 63:
		return 3
	default:
		return 4
	}
}

// NewUE creates an LTE UE with carrier aggregation enabled; add component
// carriers with AddCell (primary first), then Start.
func NewUE(eng *sim.Engine, id int, rnti uint16) *UE {
	return ran.NewUE(eng, id, rnti, true)
}
