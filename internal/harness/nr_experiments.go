package harness

import (
	"fmt"
	"time"

	"pbecc/internal/nr"
	"pbecc/internal/trace"
)

// The nr-* experiments exercise the 5G NR subsystem: single-cell
// throughput across schemes, the mmWave blockage scenario, EN-DC dual
// connectivity, and competition on an NR cell. They have no counterpart
// figure in the paper - the paper's testbed was LTE-only - but reproduce
// the behaviours its 5G discussion predicts: the same endpoint capacity
// measurement works per slot instead of per subframe, and reacting at
// physical-layer timescales matters even more when mmWave capacity
// collapses in milliseconds.

// NRScenario builds a single-UE, single-NR-cell scenario: the 5G analogue
// of LocationScenario. A busy cell adds control-plane chatter and two
// background data users.
func NRScenario(scheme string, mu, bwMHz int, rssi float64, busy bool, dur time.Duration) *Scenario {
	sc := &Scenario{
		Name:     fmt.Sprintf("nr-mu%d-%dmhz-%s", mu, bwMHz, scheme),
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

// NRTput measures every scheme on a wide sub-6 NR cell (µ=1, 100 MHz,
// 273 PRBs), idle and busy.
func NRTput(quick bool) []Table {
	dur := 6 * time.Second
	schemes := Schemes
	if quick {
		dur = 2 * time.Second
		schemes = []string{"pbe", "bbr", "cubic"}
	}
	t := &Table{ID: "nr-tput", Title: "5G NR µ=1 100 MHz cell: throughput and delay per scheme",
		Header: []string{"scheme", "links", "avg tput(Mbit/s)", "p50 delay(ms)", "p95 delay(ms)"}}
	for _, busy := range []bool{false, true} {
		label := "idle"
		if busy {
			label = "busy"
		}
		for _, s := range schemes {
			f := Run(NRScenario(s, 1, 100, -88, busy, dur)).Flows[0]
			t.Rows = append(t.Rows, []string{s, label, f1(f.AvgTputMbps),
				f1(f.Delay.Percentile(50)), f1(f.Delay.Percentile(95))})
		}
	}
	t.Notes = append(t.Notes,
		"273 PRBs at 2000 slots/s, 256-QAM: several hundred Mbit/s of carrier capacity",
		"PBE-CC's per-slot capacity feedback needs no 5G-specific changes (the paper's §8 claim)")
	return []Table{*t}
}

// nrBlockageScenario is the mmWave profile: µ=3 (120 kHz SCS, 0.125 ms
// slots) at 100 MHz with an abrupt 35 dB blockage window.
func nrBlockageScenario(scheme string, dur, blockStart, blockEnd time.Duration) *Scenario {
	sc := &Scenario{
		Name:     "nr-blockage-" + scheme,
		Seed:     3100,
		Duration: dur,
		NRCells:  []NRCellSpec{{ID: 101, Mu: 3, BandwidthMHz: 100, Control: trace.Idle()}},
		UEs: []UESpec{{ID: 1, RNTI: 61, NRCellIDs: []int{101},
			Trajectory: nr.BlockageTrajectory(-80, 35, blockStart, blockEnd)}},
		Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 20 * time.Millisecond}},
	}
	return sc
}

// NRBlockage runs PBE-CC and a loss-based baseline through an abrupt
// mmWave blockage: the carrier collapses from ~900 to ~10 Mbit/s within
// 10 ms, holds, and recovers.
func NRBlockage(quick bool) []Table {
	dur := 8 * time.Second
	blockStart, blockEnd := 3*time.Second, 5*time.Second
	if quick {
		dur = 4 * time.Second
		blockStart, blockEnd = 1500*time.Millisecond, 2500*time.Millisecond
	}
	res := map[string]*FlowResult{}
	for _, s := range []string{"pbe", "cubic", "bbr"} {
		res[s] = Run(nrBlockageScenario(s, dur, blockStart, blockEnd)).Flows[0]
	}
	timeline := &Table{ID: "nr-blockage", Title: "mmWave blockage timeline (250 ms averages, Mbit/s)",
		Header: []string{"t(s)", "pbe", "cubic", "bbr", "blocked"}}
	for from := time.Duration(0); from < dur; from += 250 * time.Millisecond {
		blocked := "-"
		if from >= blockStart && from < blockEnd {
			blocked = "BLOCKED"
		}
		timeline.Rows = append(timeline.Rows, []string{
			f1(from.Seconds()),
			f1(timelineAvg(res["pbe"], from, from+250*time.Millisecond)),
			f1(timelineAvg(res["cubic"], from, from+250*time.Millisecond)),
			f1(timelineAvg(res["bbr"], from, from+250*time.Millisecond)),
			blocked})
	}
	delays := &Table{ID: "nr-blockage-delay", Title: "mmWave blockage: one-way delay per scheme",
		Header: []string{"scheme", "avg delay(ms)", "p95 delay(ms)", "max delay(ms)"}}
	for _, s := range []string{"pbe", "cubic", "bbr"} {
		f := res[s]
		delays.Rows = append(delays.Rows, []string{s, f1(f.Delay.Mean()),
			f1(f.Delay.Percentile(95)), f1(f.Delay.Max())})
	}
	delays.Notes = append(delays.Notes,
		"PBE reads the collapse off the control channel within a few slots and paces down;",
		"loss-based senders keep pushing into the stalled queue until drops force them off")
	return []Table{*timeline, *delays}
}

// NRDualConnectivity compares an EN-DC device (LTE anchor + NR µ=1
// 100 MHz secondary) against the same device locked to LTE.
func NRDualConnectivity(quick bool) []Table {
	dur := 6 * time.Second
	schemes := []string{"pbe", "bbr"}
	if quick {
		dur = 3 * time.Second
		schemes = []string{"pbe"}
	}
	t := &Table{ID: "nr-dc", Title: "EN-DC: LTE anchor + NR secondary vs LTE-only",
		Header: []string{"scheme", "lte-only tput", "en-dc tput", "gain", "nr activated"}}
	for _, s := range schemes {
		lteOnly := &Scenario{
			Name: "nr-dc-lte-" + s, Seed: 3200, Duration: dur,
			Cells: []CellSpec{{ID: 1, NPRB: 100, Control: trace.Idle()}},
			UEs:   []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: -90}},
			Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: s, Start: 0, RTTBase: 40 * time.Millisecond}},
		}
		endc := &Scenario{
			Name: "nr-dc-" + s, Seed: 3200, Duration: dur,
			Cells:   []CellSpec{{ID: 1, NPRB: 100, Control: trace.Idle()}},
			NRCells: []NRCellSpec{{ID: 101, Mu: 1, BandwidthMHz: 100, Control: trace.Idle()}},
			UEs: []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1}, NRCellIDs: []int{101},
				RSSI: -90}},
			Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: s, Start: 0, RTTBase: 40 * time.Millisecond}},
		}
		a := Run(lteOnly).Flows[0]
		r := Run(endc)
		b := r.Flows[0]
		gain := 0.0
		if a.AvgTputMbps > 0 {
			gain = b.AvgTputMbps / a.AvgTputMbps
		}
		t.Rows = append(t.Rows, []string{s, f1(a.AvgTputMbps), f1(b.AvgTputMbps),
			f2(gain) + "x", fmt.Sprint(r.NRActivated)})
	}
	t.Notes = append(t.Notes,
		"the NR leg activates after ~100 ms of sustained anchor demand (EN-DC, 3GPP option 3);",
		"the monitor aggregates the 1 ms LTE subframe clock with the 0.5 ms NR slot clock")
	return []Table{*t}
}

// NRCompete runs each scheme against an on-off 300 Mbit/s competitor on a
// shared NR cell - the §6.3.3 controlled-competition experiment scaled to
// NR rates.
func NRCompete(quick bool) []Table {
	dur := 16 * time.Second
	schemes := []string{"pbe", "bbr", "cubic", "copa"}
	if quick {
		dur = 6 * time.Second
		schemes = []string{"pbe", "bbr", "cubic"}
	}
	t := &Table{ID: "nr-compete", Title: "NR cell competition: on-off 300 Mbit/s competitor",
		Header: []string{"scheme", "avg tput(Mbit/s)", "avg delay(ms)", "p95 delay(ms)"}}
	for _, s := range schemes {
		f := Run(CompetitionScenario(s, Params{Duration: dur, RAT: RATNR})).Flows[0]
		t.Rows = append(t.Rows, []string{s, f1(f.AvgTputMbps), f1(f.Delay.Mean()),
			f1(f.Delay.Percentile(95))})
	}
	t.Notes = append(t.Notes,
		"PBE tracks the competitor's slot-level grants and concedes the fair share without queueing")
	return []Table{*t}
}
