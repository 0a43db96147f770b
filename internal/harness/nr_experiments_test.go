package harness_test

import (
	"strconv"
	"testing"
	"time"

	"pbecc/internal/figures"
	"pbecc/internal/harness"
)

// findRow returns the first row whose first cell matches key.
func findRow(tb *figures.Table, key string) []string {
	for _, r := range tb.Rows {
		if r[0] == key {
			return r
		}
	}
	return nil
}

func cellFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", row[col], err)
	}
	return v
}

// TestNRTputPBELowDelay checks the headline NR behaviour: PBE-CC fills a
// wide NR carrier at a small fraction of the loss-based baselines' delay.
func TestNRTputPBELowDelay(t *testing.T) {
	tb := figures.NRTput(true)[0]
	for _, links := range []string{"idle", "busy"} {
		var pbe, cubic []string
		for _, r := range tb.Rows {
			if r[1] != links {
				continue
			}
			switch r[0] {
			case "pbe":
				pbe = r
			case "cubic":
				cubic = r
			}
		}
		if pbe == nil || cubic == nil {
			t.Fatalf("missing pbe/cubic rows for %s links", links)
		}
		pbeTput, cubicTput := cellFloat(t, pbe, 2), cellFloat(t, cubic, 2)
		pbeP95, cubicP95 := cellFloat(t, pbe, 4), cellFloat(t, cubic, 4)
		if pbeTput < 100 {
			t.Errorf("%s: PBE NR throughput %.1f Mbit/s implausibly low", links, pbeTput)
		}
		if pbeTput < 0.6*cubicTput {
			t.Errorf("%s: PBE %.1f Mbit/s far below CUBIC %.1f", links, pbeTput, cubicTput)
		}
		if pbeP95 >= cubicP95 {
			t.Errorf("%s: PBE p95 delay %.1f ms not below CUBIC %.1f ms", links, pbeP95, cubicP95)
		}
	}
}

// TestNRBlockageTracking is the acceptance scenario: through an abrupt
// mmWave capacity collapse PBE must track the new capacity within a few
// RTTs and keep delay bounded, while the loss-based baseline overshoots
// into the stalled queue.
func TestNRBlockageTracking(t *testing.T) {
	tables := figures.NRBlockage(true)
	timeline, delays := tables[0], tables[1]

	// During the steady blocked phase (skipping the transition bin) every
	// scheme is limited by the ~9 Mbit/s blocked carrier; PBE must be
	// there too, i.e. it tracked the collapse rather than stalling.
	var pbeBlocked []float64
	blockedBins := 0
	for _, r := range timeline.Rows {
		if r[4] != "BLOCKED" {
			continue
		}
		blockedBins++
		if blockedBins == 1 {
			continue // transition bin: drains pre-blockage flight
		}
		pbeBlocked = append(pbeBlocked, cellFloat(t, r, 1))
	}
	if len(pbeBlocked) == 0 {
		t.Fatal("no steady blocked bins in timeline")
	}
	for _, v := range pbeBlocked {
		if v <= 1 || v > 40 {
			t.Errorf("PBE rate %.1f Mbit/s in blocked phase, want ~9 (tracked collapse)", v)
		}
	}

	// After recovery PBE must ramp back up within the first 250 ms bin to
	// a large fraction of its pre-blockage rate (a few RTTs at 20 ms).
	var preRate, postRate float64
	seenBlocked := false
	for _, r := range timeline.Rows {
		if r[4] == "BLOCKED" {
			seenBlocked = true
			continue
		}
		v := cellFloat(t, r, 1)
		if !seenBlocked {
			preRate = v // last unblocked bin before the window
		} else if postRate == 0 {
			postRate = v // first bin after recovery
		}
	}
	if postRate < preRate/2 {
		t.Errorf("PBE recovered to %.1f of pre-blockage %.1f Mbit/s within 250 ms, want >50%%",
			postRate, preRate)
	}

	// The loss-based baseline pays for the overshoot in queueing delay.
	pbe, cubic := findRow(&delays, "pbe"), findRow(&delays, "cubic")
	if pbe == nil || cubic == nil {
		t.Fatal("missing delay rows")
	}
	if pbeAvg, cubicAvg := cellFloat(t, pbe, 1), cellFloat(t, cubic, 1); pbeAvg >= cubicAvg {
		t.Errorf("PBE avg delay %.1f ms not below CUBIC %.1f ms", pbeAvg, cubicAvg)
	}
}

// TestNRDualConnectivityGain checks the EN-DC UE activates its NR leg and
// clearly outperforms the same device locked to LTE.
func TestNRDualConnectivityGain(t *testing.T) {
	tb := figures.NRDualConnectivity(true)[0]
	row := findRow(&tb, "pbe")
	if row == nil {
		t.Fatal("missing pbe row")
	}
	if row[4] != "true" {
		t.Fatal("EN-DC did not activate the NR secondary cell")
	}
	lteOnly, endc := cellFloat(t, row, 1), cellFloat(t, row, 2)
	if endc < 1.5*lteOnly {
		t.Fatalf("EN-DC %.1f Mbit/s not clearly above LTE-only %.1f Mbit/s", endc, lteOnly)
	}
}

// TestNRCompeteDelay checks PBE concedes to the on-off competitor without
// building a queue: comparable throughput at far lower p95 delay.
func TestNRCompeteDelay(t *testing.T) {
	tb := figures.NRCompete(true)[0]
	pbe, bbr := findRow(&tb, "pbe"), findRow(&tb, "bbr")
	if pbe == nil || bbr == nil {
		t.Fatal("missing rows")
	}
	if pbeTput, bbrTput := cellFloat(t, pbe, 1), cellFloat(t, bbr, 1); pbeTput < 0.5*bbrTput {
		t.Errorf("PBE %.1f Mbit/s below half of BBR %.1f", pbeTput, bbrTput)
	}
	if pbeP95, bbrP95 := cellFloat(t, pbe, 3), cellFloat(t, bbr, 3); pbeP95 >= bbrP95 {
		t.Errorf("PBE p95 %.1f ms not below BBR %.1f ms", pbeP95, bbrP95)
	}
}

// TestNRScenarioBuilders covers the spec plumbing: NR cells derive PRB
// counts from bandwidth, EN-DC UEs need exactly one NR cell, and the
// harness rejects UEs with no cells.
func TestNRScenarioBuilders(t *testing.T) {
	sc := harness.NRScenario("bbr", 1, 100, -88, false, 200*time.Millisecond)
	r := harness.Run(sc)
	if len(r.Flows) != 1 || r.Flows[0].Received == 0 {
		t.Fatal("NR scenario moved no packets")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("UE with no cells did not panic")
		}
	}()
	harness.Run(&harness.Scenario{
		Seed: 1, Duration: 10 * time.Millisecond,
		UEs:   []harness.UESpec{{ID: 1, RNTI: 61}},
		Flows: []harness.FlowSpec{{ID: 1, UE: 1, Scheme: "bbr"}},
	})
}

// TestExperimentIDsUnique guards the registry against duplicate IDs as
// nr-* experiments join the paper figures.
func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range figures.Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"nr-tput", "nr-blockage", "nr-dc", "nr-compete"} {
		if !seen[id] {
			t.Fatalf("experiment %q not registered", id)
		}
	}
}
