package harness

import (
	"time"

	"pbecc/internal/trace"
)

// Location is one measurement spot of the §6.3.1 grid: the paper tests 40
// locations covering all combinations of indoor/outdoor, one/two/three
// aggregated cells, and busy/idle link conditions.
type Location struct {
	Index  int
	Name   string
	Indoor bool
	CCs    int // aggregated component carriers the device supports
	Busy   bool
	RSSI   float64
}

// LocationGrid returns the 40-location grid with the paper's proportions:
// 25 busy and 15 idle links, 10 locations per single-carrier device
// (Redmi 8) and 30 with carrier aggregation (MIX3, S8).
func LocationGrid() []Location {
	var locs []Location
	rssiSteps := []float64{-85, -91, -97, -103, -88}
	for i := 0; i < 40; i++ {
		ccs := 1
		if i >= 10 {
			ccs = 2 + (i % 2)
		}
		loc := Location{
			Index:  i,
			Indoor: i%2 == 0,
			CCs:    ccs,
			Busy:   i%8 < 5, // 25 of 40 busy
			RSSI:   rssiSteps[i%len(rssiSteps)],
		}
		locs = append(locs, loc)
	}
	return locs
}

// RepresentativeLocations returns the six spots of Figures 13-14: four
// indoor (1/2/3 CCs busy, 3 CCs idle) and two outdoor (2 CCs busy/idle).
func RepresentativeLocations() []Location {
	return []Location{
		{Index: 100, Name: "indoor-1cc-busy", Indoor: true, CCs: 1, Busy: true, RSSI: -91},
		{Index: 101, Name: "indoor-2cc-busy", Indoor: true, CCs: 2, Busy: true, RSSI: -91},
		{Index: 102, Name: "indoor-3cc-busy", Indoor: true, CCs: 3, Busy: true, RSSI: -88},
		{Index: 103, Name: "indoor-3cc-idle", Indoor: true, CCs: 3, Busy: false, RSSI: -88},
		{Index: 104, Name: "outdoor-2cc-busy", Indoor: false, CCs: 2, Busy: true, RSSI: -97},
		{Index: 105, Name: "outdoor-2cc-idle", Indoor: false, CCs: 2, Busy: false, RSSI: -97},
	}
}

// LocationScenario builds the end-to-end experiment for one scheme at one
// location. Busy locations add the calibrated control-plane chatter plus
// two background data users; the test flow always runs on UE 1.
func LocationScenario(loc Location, scheme string, dur time.Duration) *Scenario {
	sc := &Scenario{
		Seed:     int64(1000 + loc.Index), // same conditions across schemes
		Duration: dur,
	}
	for c := 1; c <= loc.CCs; c++ {
		cs := CellSpec{ID: c}
		if loc.Busy {
			cs.Control = trace.Busy()
		} else {
			cs.Control = trace.Idle()
		}
		sc.Cells = append(sc.Cells, cs)
	}
	var cellIDs []int
	for c := 1; c <= loc.CCs; c++ {
		cellIDs = append(cellIDs, c)
	}
	fading := 2.5
	if loc.Indoor {
		fading = 1.5
	}
	sc.UEs = append(sc.UEs, UESpec{
		ID: 1, RNTI: 61, CellIDs: cellIDs, RSSI: loc.RSSI,
		FadingSigma: fading, CA: loc.CCs > 1,
	})
	rtt := 50 * time.Millisecond
	if loc.Indoor {
		rtt = 40 * time.Millisecond
	}
	flow := FlowSpec{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: rtt}
	if loc.Busy && loc.Index%3 == 0 {
		// A third of the busy locations are Internet-bottlenecked part of
		// the time (congested transit), reproducing the paper's §6.3.1
		// observation that busy-hour connections spend ~18% of time in
		// the Internet-bottleneck state.
		flow.InternetRate = 25e6
		flow.InternetQueue = 1 << 18
	}
	sc.Flows = append(sc.Flows, flow)
	if loc.Busy {
		// Background data users sharing the primary cell.
		sc.UEs = append(sc.UEs,
			UESpec{ID: 2, RNTI: 62, CellIDs: []int{1}, RSSI: loc.RSSI + 3},
			UESpec{ID: 3, RNTI: 63, CellIDs: []int{1}, RSSI: loc.RSSI - 4},
		)
		sc.Flows = append(sc.Flows,
			FlowSpec{ID: 2, UE: 2, Scheme: "fixed", FixedRate: 8e6, Start: 0},
			FlowSpec{ID: 3, UE: 3, Scheme: "fixed", FixedRate: 4e6,
				Start: dur / 4, OnPeriod: dur / 4, OffPeriod: dur / 8},
		)
	}
	return sc
}

// NRScenario builds a single-UE, single-NR-cell scenario: the 5G analogue
// of LocationScenario. A busy cell adds control-plane chatter and two
// background data users.
func NRScenario(scheme string, mu, bwMHz int, rssi float64, busy bool, dur time.Duration) *Scenario {
	sc := &Scenario{
		Seed:     int64(3000 + mu),
		Duration: dur,
	}
	cell := NRCellSpec{ID: 101, Mu: mu, BandwidthMHz: bwMHz}
	if busy {
		cell.Control = trace.Busy()
	} else {
		cell.Control = trace.Idle()
	}
	sc.NRCells = []NRCellSpec{cell}
	sc.UEs = append(sc.UEs, UESpec{ID: 1, RNTI: 61, NRCellIDs: []int{101}, RSSI: rssi, FadingSigma: 1.5})
	sc.Flows = append(sc.Flows, FlowSpec{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 30 * time.Millisecond})
	if busy {
		sc.UEs = append(sc.UEs,
			UESpec{ID: 2, RNTI: 62, NRCellIDs: []int{101}, RSSI: rssi + 3},
			UESpec{ID: 3, RNTI: 63, NRCellIDs: []int{101}, RSSI: rssi - 4},
		)
		sc.Flows = append(sc.Flows,
			FlowSpec{ID: 2, UE: 2, Scheme: "fixed", FixedRate: 60e6, Start: 0},
			FlowSpec{ID: 3, UE: 3, Scheme: "fixed", FixedRate: 30e6,
				Start: dur / 4, OnPeriod: dur / 4, OffPeriod: dur / 8},
		)
	}
	return sc
}
