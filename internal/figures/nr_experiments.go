package figures

import (
	"fmt"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/sweep"
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

// NRTput tabulates every scheme on a wide sub-6 NR cell (µ=1, 100 MHz,
// 273 PRBs), idle and busy.
func NRTput(quick bool) []Table {
	t := &Table{ID: "nr-tput", Title: "5G NR µ=1 100 MHz cell: throughput and delay per scheme",
		Header: []string{"scheme", "links", "avg tput(Mbit/s)", "p50 delay(ms)", "p95 delay(ms)"}}
	schemes := quickOr(quick, []string{"pbe", "bbr", "cubic"}, harness.Schemes)
	for _, links := range []string{"idle", "busy"} {
		spec := schemeSpec("nr-tput", "steady", harness.RATNR, schemes, 3001, quickOr(quick, 2*time.Second, 6*time.Second))
		spec.Busy = links == "busy"
		for _, p := range points(spec) {
			t.Rows = append(t.Rows, []string{p.job.Scheme, links, f1(p.tput), f1(p.p50), f1(p.p95)})
		}
	}
	t.Notes = append(t.Notes,
		"273 PRBs at 2000 slots/s, 256-QAM: several hundred Mbit/s of carrier capacity",
		"PBE-CC's per-slot capacity feedback needs no 5G-specific changes (the paper's §8 claim)")
	return []Table{*t}
}

// NRBlockage runs PBE-CC and a loss-based baseline through an abrupt
// mmWave blockage: the carrier collapses from ~900 to ~10 Mbit/s within
// 10 ms, holds, and recovers.
func NRBlockage(quick bool) []Table {
	dur := quickOr(quick, 4*time.Second, 8*time.Second)
	step := 250 * time.Millisecond
	// The NR mobility family blocks the carrier over the run's middle
	// quarter.
	blockStart, blockEnd := dur*3/8, dur*5/8
	type read struct {
		tl            []float64
		avg, p95, max float64
	}
	schemes := []string{"pbe", "cubic", "bbr"}
	res := eachScheme(schemes,
		func(s string) *harness.Scenario {
			return harness.MobilityScenario(s, harness.Params{Duration: dur, RAT: harness.RATNR})
		},
		func(_ string, r *harness.Result) read {
			f := r.Flows[0]
			tl := windowAvgs(f, 0, dur, step)
			avg := f.Delay.Mean() // before Percentile sorts the samples
			return read{tl, avg, f.Delay.Percentile(95), f.Delay.Max()}
		})
	timeline := &Table{ID: "nr-blockage", Title: "mmWave blockage timeline (250 ms averages, Mbit/s)",
		Header: []string{"t(s)", "pbe", "cubic", "bbr", "blocked"}}
	for k := range res[0].tl {
		from := time.Duration(k) * step
		blocked := "-"
		if from >= blockStart && from < blockEnd {
			blocked = "BLOCKED"
		}
		timeline.Rows = append(timeline.Rows, []string{
			f1(from.Seconds()), f1(res[0].tl[k]), f1(res[1].tl[k]), f1(res[2].tl[k]), blocked})
	}
	delays := &Table{ID: "nr-blockage-delay", Title: "mmWave blockage: one-way delay per scheme",
		Header: []string{"scheme", "avg delay(ms)", "p95 delay(ms)", "max delay(ms)"}}
	for i, s := range schemes {
		delays.Rows = append(delays.Rows, []string{s, f1(res[i].avg), f1(res[i].p95), f1(res[i].max)})
	}
	delays.Notes = append(delays.Notes,
		"PBE reads the collapse off the control channel within a few slots and paces down;",
		"loss-based senders keep pushing into the stalled queue until drops force them off")
	return []Table{*timeline, *delays}
}

// NRDualConnectivity compares an EN-DC device (LTE anchor + NR µ=1
// 100 MHz secondary) against the same device locked to LTE.
func NRDualConnectivity(quick bool) []Table {
	dur := quickOr(quick, 3*time.Second, 6*time.Second)
	schemes := quickOr(quick, []string{"pbe"}, []string{"pbe", "bbr"})
	// Scenario 2k is scheme k locked to LTE, 2k+1 the same device with EN-DC.
	type read struct {
		tput        float64
		nrActivated bool
	}
	runs := sweep.Pool(2*len(schemes), 0, nil, func(i int) *harness.Scenario {
		sc := &harness.Scenario{
			Seed: 3200, Duration: dur,
			Cells: []harness.CellSpec{{ID: 1, Control: trace.Idle()}},
			UEs:   []harness.UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: -90}},
			Flows: []harness.FlowSpec{{ID: 1, UE: 1, Scheme: schemes[i/2], Start: 0, RTTBase: 40 * time.Millisecond}},
		}
		if i%2 == 1 {
			sc.NRCells = []harness.NRCellSpec{{ID: 101, Mu: 1, BandwidthMHz: 100, Control: trace.Idle()}}
			sc.UEs[0].NRCellIDs = []int{101}
		}
		return sc
	}, func(_ int, _ *harness.Scenario, r *harness.Result) read {
		return read{r.Flows[0].AvgTputMbps, r.NRActivated}
	})
	t := &Table{ID: "nr-dc", Title: "EN-DC: LTE anchor + NR secondary vs LTE-only",
		Header: []string{"scheme", "lte-only tput", "en-dc tput", "gain", "nr activated"}}
	for k, s := range schemes {
		lteOnly, endc := runs[2*k], runs[2*k+1]
		gain := 0.0
		if lteOnly.tput > 0 {
			gain = endc.tput / lteOnly.tput
		}
		t.Rows = append(t.Rows, []string{s, f1(lteOnly.tput), f1(endc.tput), f2(gain) + "x", fmt.Sprint(endc.nrActivated)})
	}
	t.Notes = append(t.Notes,
		"the NR leg activates after ~100 ms of sustained anchor demand (EN-DC, 3GPP option 3);",
		"the monitor aggregates the 1 ms LTE subframe clock with the 0.5 ms NR slot clock")
	return []Table{*t}
}

// NRCompete tabulates each scheme against an on-off 300 Mbit/s competitor
// on a shared NR cell - the §6.3.3 controlled-competition experiment
// scaled to NR rates.
func NRCompete(quick bool) []Table {
	t := &Table{ID: "nr-compete", Title: "NR cell competition: on-off 300 Mbit/s competitor",
		Header: []string{"scheme", "avg tput(Mbit/s)", "avg delay(ms)", "p95 delay(ms)"}}
	schemes := quickOr(quick, []string{"pbe", "bbr", "cubic"}, []string{"pbe", "bbr", "cubic", "copa"})
	for _, p := range points(schemeSpec("nr-compete", "competition", harness.RATNR, schemes, 3300, quickOr(quick, 6*time.Second, 16*time.Second))) {
		t.Rows = append(t.Rows, []string{p.job.Scheme, f1(p.tput), f1(p.avgDelay), f1(p.p95)})
	}
	t.Notes = append(t.Notes,
		"PBE tracks the competitor's slot-level grants and concedes the fair share without queueing")
	return []Table{*t}
}
