// Package nr configures the shared RAN scheduler core (package ran) as a
// 5G New Radio carrier: flexible numerology (subcarrier spacing 15 kHz *
// 2^µ, so slots of 1/0.5/0.25/0.125 ms), wide sub-6 and mmWave carriers,
// 256-QAM by default, the TS 38.214 RBG sizes, PRB-granular control
// grants, and code-block-group HARQ. It adds what only NR has: the mmWave
// blockage profile and an EN-DC dual-connectivity UE that aggregates an
// LTE anchor with an NR secondary cell (the non-standalone deployment the
// paper's 5G discussion targets).
//
// The scheduler itself is the one the LTE cell runs - control-plane users
// first, HARQ retransmissions second, water-filling over backlogged data
// users - so cross-RAT comparisons isolate the effect of the numerology,
// not of a different scheduler.
package nr

import (
	"time"

	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// The cell and UE types are the shared RAN core's.
type (
	Cell = ran.Cell
	UE   = ran.UE
)

// CodeBlockBits is the maximum code block size of the NR LDPC coder
// (3GPP TS 38.212 §5.2.2). NR transport blocks are far larger than LTE's,
// so whole-TB retransmission would waste a large fraction of the carrier;
// instead the receiver acknowledges code-block groups and only failed
// groups are retransmitted, in a proportionally smaller grant.
const CodeBlockBits = 8448

// DefaultPerUserQueueBytes caps one user's downlink queue at an NR cell.
// NR base stations provision deeper RLC buffers than LTE in proportion to
// carrier rate (roughly 100 ms at 500 Mbit/s).
const DefaultPerUserQueueBytes = 6_000_000

// ControlGrantPRBs is the downlink footprint of one control-grant unit.
// The control-traffic populations in package trace are calibrated in
// 20 MHz LTE RBGs of four PRBs; NR carries such small allocations with
// resource-allocation type 1 (contiguous PRBs, no RBG rounding), so one
// grant unit occupies four PRBs here too and the paper's Ta/Pa filter
// thresholds keep their meaning on NR cells despite the 16-PRB RBGs.
const ControlGrantPRBs = 4

// Config describes one NR carrier.
type Config struct {
	ID int
	Mu int // numerology µ: 0..3 (slot = 1 ms / 2^µ)

	// NPRB is the carrier width in PRBs. When zero it is derived from
	// BandwidthMHz via the 3GPP transmission-bandwidth tables.
	NPRB         int
	BandwidthMHz int

	// Table selects the CQI table; zero means 256-QAM, the NR default.
	Table phy.CQITable

	// Control produces control-plane grants once per subframe (nil = quiet
	// cell).
	Control ran.ControlSource

	// PerUserQueueBytes caps each user's downlink queue; zero selects
	// DefaultPerUserQueueBytes, negative means unbounded.
	PerUserQueueBytes int
}

// NewCell creates an NR cell from the config and starts its slot ticker on
// the engine. It panics if the carrier width cannot be determined.
func NewCell(eng *sim.Engine, cfg Config) *Cell {
	nprb := cfg.NPRB
	if nprb == 0 {
		nprb = phy.NRCarrierPRBs(cfg.Mu, cfg.BandwidthMHz)
	}
	if nprb <= 0 {
		panic("nr: cell needs NPRB or a defined µ/bandwidth combination")
	}
	table := cfg.Table
	if table == 0 {
		table = phy.Table256QAM
	}
	queueBytes := cfg.PerUserQueueBytes
	switch {
	case queueBytes == 0:
		queueBytes = DefaultPerUserQueueBytes
	case queueBytes < 0:
		queueBytes = 0
	}
	return ran.NewCell(eng, ran.CellConfig{
		ID: cfg.ID, NPRB: nprb, Table: table, Control: cfg.Control,
		SlotsPerSubframe: phy.NRSlotsPerSubframe(cfg.Mu),
		RBGSize:          rbgSizeFor(nprb),
		ControlGrantPRBs: ControlGrantPRBs,
		RotateUsers:      true,
		CBGBits:          CodeBlockBits,

		PerUserQueueBytes: queueBytes,
	})
}

// rbgSizeFor returns the nominal RBG size P of 3GPP TS 38.214
// Table 5.1.2.2.1-1 (configuration 1).
func rbgSizeFor(nprb int) int {
	switch {
	case nprb <= 36:
		return 2
	case nprb <= 72:
		return 4
	case nprb <= 144:
		return 8
	default:
		return 16
	}
}

// NewUE creates a standalone-mode 5G device; add carriers with AddCell.
// Unlike the LTE UE it runs no carrier-(de)activation policy - NR carriers
// are semi-statically configured and all active; dynamic secondary
// activation is the EN-DC UE's job.
func NewUE(eng *sim.Engine, id int, rnti uint16) *UE {
	return ran.NewUE(eng, id, rnti, false)
}

// BlockageTrajectory builds the abrupt mmWave blockage profile: the RSSI
// holds at base dBm, collapses by depth dB over a 10 ms edge at start, and
// recovers at end. A blocked mmWave beam loses tens of dB within
// milliseconds when a body or vehicle crosses the path; depth around 30 dB
// reproduces the capacity collapse the paper's 5G discussion anticipates.
func BlockageTrajectory(base, depth float64, start, end time.Duration) phy.Trajectory {
	const edge = 10 * time.Millisecond
	return phy.Trajectory{
		{Start: 0, End: start, FromDBm: base, ToDBm: base},
		{Start: start, End: start + edge, FromDBm: base, ToDBm: base - depth},
		{Start: start + edge, End: end, FromDBm: base - depth, ToDBm: base - depth},
		{Start: end, End: end + edge, FromDBm: base - depth, ToDBm: base},
	}
}
