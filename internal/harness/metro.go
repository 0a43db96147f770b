package harness

import (
	"math/rand"
	"time"

	"pbecc/internal/trace"
)

// The metro family is the city-scale workload the sharded engine exists
// for: half LTE and half NR cells (64-256 total), sixteen UEs per cell,
// and a flow mix that stresses every subsystem at once - bulk downloads
// under several competing schemes, frame-level RTC calls, one SFU fan-out
// spread across the metro, and a large churning background population
// whose rates and session lengths are calibrated from the paper's
// measured user populations (Figure 11(b) rates, Figure 7-style
// short-session dominance via trace.SessionOnOff, busy-cell control
// chatter on every third cell).
//
// Per-cell user slots (UE i sits on cell i%cells in slot k = i/cells):
//
//	k 0     bulk flow: the scheme under test on the measured cell,
//	        competitors cycling bbr/cubic/pbe elsewhere
//	k 1     frame-level RTC call on the GCC baseline
//	k 2     SFU subscriber leg (on every ~cells/32nd cell)
//	k 3     EN-DC device (LTE anchor + NR secondary) with background load
//	k 4-15  churning background users (on/off fixed-rate sessions)
const (
	MetroUEsPerCell  = 16
	metroDefaultCell = 128
	metroSFULegs     = 32
)

// metroCompetitors are the bulk schemes that share the metro with the
// scheme under test.
var metroCompetitors = []string{"bbr", "cubic", "pbe"}

// MetroScenario builds the metro scenario. Params.Cells picks the total
// cell count (default 128 -> 2048 UEs), Params.RAT the RAT of the
// measured flow's UE, Params.Shards the parallel width. The scenario is
// always sharded and always streams per-flow statistics.
func MetroScenario(scheme string, p Params) *Scenario {
	// BuildScenario enforces the family's 2-cell floor, so an explicit
	// Params.Cells is always honored exactly (never rounded up).
	cells := p.cellCount(metroDefaultCell)
	nLTE := (cells + 1) / 2
	nNR := cells - nLTE
	dur := p.dur(2 * time.Second)
	seed := p.Seed
	if seed == 0 {
		seed = 4242
	}
	// Build-time draws (background rates, session churn, start offsets)
	// come from a scenario-seeded source, so the topology is a pure
	// function of (params, seed) before any engine exists.
	rng := rand.New(rand.NewSource(seed * 7919))

	sc := &Scenario{
		Seed:        seed,
		Duration:    dur,
		Sharded:     true,
		StreamStats: true,
		SFU:         true,
	}

	control := func(idx int) *trace.ControlTraffic {
		if p.Busy || idx%3 == 0 {
			return trace.Busy()
		}
		return trace.Idle()
	}
	for c := 0; c < nLTE; c++ {
		sc.Cells = append(sc.Cells, CellSpec{ID: 1 + c, Control: control(c)})
	}
	for c := 0; c < nNR; c++ {
		sc.NRCells = append(sc.NRCells, NRCellSpec{
			ID: nrCellID(nLTE, c), Mu: 1, BandwidthMHz: 100, Control: control(nLTE + c),
		})
	}

	// The measured UE sits in slot 0 of cell 0 (LTE) or cell nLTE (the
	// first NR cell) depending on the RAT axis.
	measuredCell := 0
	if p.rat() == RATNR {
		measuredCell = nLTE
	}

	sfuStep := cells / metroSFULegs
	if sfuStep < 1 {
		sfuStep = 1
	}

	total := cells * MetroUEsPerCell
	var measured FlowSpec
	var flows []FlowSpec
	for i := 0; i < total; i++ {
		cellIdx := i % cells
		k := i / cells
		id := i + 1
		ue := UESpec{ID: id, RNTI: uint16(61 + k), RSSI: p.rssi(-80 - float64(i%13))}
		if cellIdx < nLTE {
			ue.CellIDs = []int{1 + cellIdx}
		} else {
			ue.NRCellIDs = []int{nrCellID(nLTE, cellIdx-nLTE)}
		}
		if k == 3 && cellIdx < nLTE && cellIdx < nNR {
			// EN-DC device: LTE anchor j entangled with NR secondary j.
			// A dedicated RNTI range keeps it collision-free on the NR
			// cell, whose native users also count 61 upward.
			ue.RNTI = uint16(300 + k)
			ue.NRCellIDs = []int{nrCellID(nLTE, cellIdx)}
		}
		if p.FluidBackground && k >= 4 {
			// Fluid tier: slots 4-15 become per-cell rate envelopes
			// instead of packet-level on/off flows. The three draws below
			// mirror the packet path's default case exactly (same rng,
			// same order), so both modes model the same population; slot
			// 3 stays packet-level to keep EN-DC activation dynamics.
			rate := trace.SampleUserRate(rng) * 2e6
			on, off := trace.SessionOnOff(rng)
			start := time.Duration(rng.Int63n(int64(dur/4 + 1)))
			addFluidSession(sc, &ue, rate, on, off, start)
			continue
		}
		sc.UEs = append(sc.UEs, ue)

		fl := FlowSpec{ID: id, UE: id, Start: 0,
			RTTBase: time.Duration(30+10*(i%4)) * time.Millisecond}
		switch {
		case k == 0 && cellIdx == measuredCell:
			fl.Scheme = scheme
			fl.RTTBase = 40 * time.Millisecond
			// Cap the content server like a real CDN edge so one bulk
			// flow cannot monopolize a wide NR carrier, which would
			// drown the metro in packet events without adding contrast.
			fl.InternetRate = 60e6
			fl.InternetQueue = 256 * 1500
			measured = fl
			continue
		case k == 0:
			fl.Scheme = metroCompetitors[cellIdx%len(metroCompetitors)]
			fl.InternetRate = 60e6
			fl.InternetQueue = 256 * 1500
		case k == 1:
			fl.Scheme = "gcc"
			fl.Media = true
		case k == 2 && cellIdx%sfuStep == 0 && cellIdx/sfuStep < metroSFULegs:
			fl.Scheme = "gcc"
			fl.SFULeg = true
		default:
			// Churning background population: rates from the Figure
			// 11(b) user-rate distribution (two PRBs' worth), sessions
			// arriving and departing per trace.SessionOnOff.
			fl.Scheme = "fixed"
			fl.FixedRate = trace.SampleUserRate(rng) * 2e6
			fl.OnPeriod, fl.OffPeriod = trace.SessionOnOff(rng)
			fl.Start = time.Duration(rng.Int63n(int64(dur/4 + 1)))
		}
		flows = append(flows, fl)
	}
	sc.Flows = append([]FlowSpec{measured}, flows...)
	return p.apply(sc)
}
