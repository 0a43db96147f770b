package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/fluid"
	"pbecc/internal/stats"
)

// idleCellScenario: one UE alone on an idle 100-PRB cell at -93 dBm
// (~39.9 Mbit/s), no carrier aggregation, 40 ms base RTT.
func idleCellScenario(scheme string, seed int64) *Scenario {
	return &Scenario{
		Seed: seed, Duration: 8 * time.Second,
		Cells: []CellSpec{{ID: 1}},
		UEs:   []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: -93}},
		Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: scheme, Start: 0, RTTBase: 40 * time.Millisecond}},
	}
}

func TestPBEIdleCellNearCapacityLowDelay(t *testing.T) {
	r := Run(idleCellScenario("pbe", 1))
	f := r.Flows[0]
	if f.AvgTputMbps < 30 {
		t.Fatalf("PBE avg throughput = %.1f Mbit/s on a ~40 Mbit/s cell", f.AvgTputMbps)
	}
	// One-way propagation is 20 ms + ~2 ms radio; PBE must keep queueing
	// minimal: p95 delay well under 60 ms.
	if p95 := f.Delay.Percentile(95); p95 > 60 {
		t.Fatalf("PBE p95 delay = %.1f ms, want < 60", p95)
	}
}

func TestBBRIdleCellHigherDelay(t *testing.T) {
	pbe := Run(idleCellScenario("pbe", 1)).Flows[0]
	bbr := Run(idleCellScenario("bbr", 1)).Flows[0]
	if bbr.AvgTputMbps < 30 {
		t.Fatalf("BBR avg throughput = %.1f", bbr.AvgTputMbps)
	}
	// The paper's headline: comparable throughput, PBE delay much lower
	// (Table 1: 95th-percentile reduction 1.5-2x).
	ratio := bbr.Delay.Percentile(95) / pbe.Delay.Percentile(95)
	if ratio < 1.2 {
		t.Fatalf("BBR/PBE p95 delay ratio = %.2f, want > 1.2 (paper: 1.5-2x)", ratio)
	}
	tputRatio := pbe.AvgTputMbps / bbr.AvgTputMbps
	if tputRatio < 0.85 {
		t.Fatalf("PBE/BBR throughput ratio = %.2f, want >= 0.85", tputRatio)
	}
}

func TestAllSchemesRunClean(t *testing.T) {
	for i, scheme := range Schemes {
		sc := idleCellScenario(scheme, int64(10+i))
		sc.Duration = 4 * time.Second
		r := Run(sc)
		f := r.Flows[0]
		if f.AvgTputMbps <= 0.05 {
			t.Fatalf("%s: throughput %.2f Mbit/s (starved)", scheme, f.AvgTputMbps)
		}
		if f.Delay.Len() == 0 {
			t.Fatalf("%s: no delay samples", scheme)
		}
	}
}

func TestPBEInternetBottleneck(t *testing.T) {
	sc := idleCellScenario("pbe", 3)
	sc.Flows[0].InternetRate = 10e6 // well below the ~40 Mbit/s cell
	sc.Flows[0].InternetQueue = 1 << 18
	r := Run(sc)
	f := r.Flows[0]
	if f.AvgTputMbps < 7 || f.AvgTputMbps > 10.5 {
		t.Fatalf("throughput = %.1f Mbit/s through a 10 Mbit/s Internet bottleneck", f.AvgTputMbps)
	}
	// The client must spend most of its time in the Internet-bottleneck
	// state.
	if f.InternetFrac < 0.5 {
		t.Fatalf("internet-state fraction = %.2f, want > 0.5", f.InternetFrac)
	}
}

func TestPBEWirelessBottleneckStateResidency(t *testing.T) {
	r := Run(idleCellScenario("pbe", 4))
	f := r.Flows[0]
	// §6.3.1: on idle links PBE spends ~4% of time in the Internet state.
	if f.InternetFrac > 0.15 {
		t.Fatalf("internet-state fraction = %.2f on a wireless-bottlenecked path", f.InternetFrac)
	}
}

func TestTwoPBEFlowsFairShare(t *testing.T) {
	sc := &Scenario{
		Seed: 5, Duration: 10 * time.Second,
		Cells: []CellSpec{{ID: 1}},
		UEs: []UESpec{
			{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: -93},
			{ID: 2, RNTI: 62, CellIDs: []int{1}, RSSI: -93},
		},
		Flows: []FlowSpec{
			{ID: 1, UE: 1, Scheme: "pbe", Start: 0, RTTBase: 40 * time.Millisecond},
			{ID: 2, UE: 2, Scheme: "pbe", Start: 2 * time.Second, RTTBase: 40 * time.Millisecond},
		},
	}
	r := Run(sc)
	// Compare throughput over the contended span [3s,10s].
	var rates []float64
	for _, f := range r.Flows {
		var bytes float64
		buckets := f.windows.Buckets()
		for i, b := range buckets {
			if t := time.Duration(i) * 100 * time.Millisecond; t >= 3*time.Second {
				bytes += b
			}
		}
		rates = append(rates, bytes*8/7/1e6)
	}
	j := stats.Jain(rates)
	if j < 0.95 {
		t.Fatalf("Jain index = %.3f for two PBE flows (rates %.1f/%.1f), want > 0.95",
			j, rates[0], rates[1])
	}
	// And both keep low delay.
	for i, f := range r.Flows {
		if p95 := f.Delay.Percentile(95); p95 > 80 {
			t.Fatalf("flow %d p95 delay = %.1f ms under competition", sc.Flows[i].ID, p95)
		}
	}
}

func TestControlledCompetitionTracking(t *testing.T) {
	// A PBE flow shares the cell with a 4s-on/4s-off 30 Mbit/s fixed-rate
	// competitor (the §6.3.3 structure, scaled). PBE must keep delay low
	// throughout and reclaim capacity during off periods.
	sc := &Scenario{
		Seed: 6, Duration: 12 * time.Second,
		Cells: []CellSpec{{ID: 1}},
		UEs: []UESpec{
			{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: -93},
			{ID: 2, RNTI: 62, CellIDs: []int{1}, RSSI: -93},
		},
		Flows: []FlowSpec{
			{ID: 1, UE: 1, Scheme: "pbe", Start: 0, RTTBase: 40 * time.Millisecond},
			{ID: 2, UE: 2, Scheme: "fixed", FixedRate: 30e6, Start: 2 * time.Second,
				OnPeriod: 4 * time.Second, OffPeriod: 4 * time.Second},
		},
	}
	r := Run(sc)
	f := r.Flows[0]
	if p95 := f.Delay.Percentile(95); p95 > 90 {
		t.Fatalf("PBE p95 delay = %.1f ms under on-off competition", p95)
	}
	// Rate during competitor-on (t in [3,5]s) must be well below the rate
	// during competitor-off (t in [7,9]s).
	onRate := f.TimelineAvg(3*time.Second, 5*time.Second)
	offRate := f.TimelineAvg(7*time.Second, 9*time.Second)
	if offRate < onRate*1.3 {
		t.Fatalf("PBE did not reclaim idle capacity: on=%.1f off=%.1f Mbit/s", onRate, offRate)
	}
}

func TestCarrierAggregationWithPBE(t *testing.T) {
	sc := &Scenario{
		Seed: 7, Duration: 6 * time.Second,
		Cells: []CellSpec{{ID: 1}, {ID: 2}},
		UEs:   []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1, 2}, RSSI: -93, CA: true}},
		Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: "pbe", Start: 0, RTTBase: 40 * time.Millisecond}},
	}
	r := Run(sc)
	if !r.CATriggered {
		t.Fatal("PBE never triggered carrier aggregation (Figure 15 expects it everywhere)")
	}
	f := r.Flows[0]
	// Aggregate capacity ~80 Mbit/s; PBE should exceed single-cell rate.
	if f.AvgTputMbps < 42 {
		t.Fatalf("aggregated throughput = %.1f Mbit/s, want > 42", f.AvgTputMbps)
	}
	if p95 := f.Delay.Percentile(95); p95 > 80 {
		t.Fatalf("p95 delay with CA = %.1f ms", p95)
	}
}

func TestConservativeSchemeNoCA(t *testing.T) {
	sc := &Scenario{
		Seed: 8, Duration: 6 * time.Second,
		Cells: []CellSpec{{ID: 1}, {ID: 2}},
		UEs:   []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1, 2}, RSSI: -93, CA: true}},
		Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: "sprout", Start: 0, RTTBase: 40 * time.Millisecond}},
	}
	r := Run(sc)
	_ = r // Sprout may or may not trigger; the assertion is on Copa below.
	sc2 := &Scenario{
		Seed: 8, Duration: 6 * time.Second,
		Cells: []CellSpec{{ID: 1}, {ID: 2}},
		UEs:   []UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1, 2}, RSSI: -93, CA: true}},
		Flows: []FlowSpec{{ID: 1, UE: 1, Scheme: "copa", Start: 0, RTTBase: 40 * time.Millisecond}},
	}
	r2 := Run(sc2)
	if r2.Flows[0].AvgTputMbps > 40 && !r2.CATriggered {
		t.Fatal("copa exceeded one cell without CA - inconsistent")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(idleCellScenario("pbe", 42)).Flows[0]
	b := Run(idleCellScenario("pbe", 42)).Flows[0]
	if a.AvgTputMbps != b.AvgTputMbps || a.Received != b.Received {
		t.Fatalf("nondeterministic: %.3f/%d vs %.3f/%d",
			a.AvgTputMbps, a.Received, b.AvgTputMbps, b.Received)
	}
}

func TestPRBSampling(t *testing.T) {
	sc := idleCellScenario("pbe", 9)
	sc.Duration = 2 * time.Second
	sc.PRBSampleEvery = 50 * time.Millisecond
	r := Run(sc)
	if len(r.PRBTimes) < 30 {
		t.Fatalf("PRB samples = %d, want ~40", len(r.PRBTimes))
	}
	samples := r.PRBSamples[1]
	peak := 0.0
	for _, v := range samples {
		if v > peak {
			peak = v
		}
	}
	if peak < 50 {
		t.Fatalf("peak PRB share = %.1f, want most of the 100-PRB cell", peak)
	}
}

// TestSchemeTable: every row builds a controller under its own name, the
// exported list keeps the table's order, and exactly pbe and pbertc read
// the monitor.
func TestSchemeTable(t *testing.T) {
	want := []string{"pbe", "bbr", "cubic", "verus", "sprout", "copa", "pcc", "vivace", "gcc", "pbertc"}
	if !slices.Equal(Schemes, want) {
		t.Fatalf("Schemes = %v, want %v", Schemes, want)
	}
	// Each row's concrete controller and feedback types, "" for no feedback.
	types := map[string][2]string{
		"pbe":    {"*core.Sender", "*core.Client"},
		"bbr":    {"*bbr.BBR", ""},
		"cubic":  {"*cubic.Cubic", ""},
		"verus":  {"*verus.Verus", ""},
		"sprout": {"*sprout.Sprout", ""},
		"copa":   {"*copa.Copa", ""},
		"pcc":    {"*pcc.PCC", ""},
		"vivace": {"*vivace.Vivace", ""},
		"gcc":    {"*gcc.GCC", "*gcc.REMB"},
		"pbertc": {"*gcc.GCC", "*pbertc.Feedback"},
	}
	for _, s := range schemes {
		got := [2]string{fmt.Sprintf("%T", s.controller()), ""}
		if s.feedback != nil {
			got[1] = fmt.Sprintf("%T", s.feedback(core.NewMonitor(61)))
		}
		if got != types[s.name] {
			t.Errorf("row %q builds %v, want %v", s.name, got, types[s.name])
		}
		if got, want := SchemeUsesMonitor(s.name), s.name == "pbe" || s.name == "pbertc"; got != want {
			t.Errorf("SchemeUsesMonitor(%q) = %v, want %v", s.name, got, want)
		}
	}
	for _, name := range []string{"fixed", "quic-magic"} {
		if SchemeUsesMonitor(name) {
			t.Errorf("SchemeUsesMonitor(%q) = true", name)
		}
	}
}

// TestScenarioValidate: one malformed scenario per structural error, each
// rejected with an error naming the offending ID, and the well-formed base
// accepted.
func TestScenarioValidate(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Cells:   []CellSpec{{ID: 1}},
			NRCells: []NRCellSpec{{ID: 101, Mu: 1, BandwidthMHz: 100}, {ID: 102, Mu: 1, BandwidthMHz: 100}},
			UEs: []UESpec{
				{ID: 1, RNTI: 61, CellIDs: []int{1}},
				{ID: 2, RNTI: 62, NRCellIDs: []int{101}},
				{ID: 3, RNTI: 63, CellIDs: []int{1}, NRCellIDs: []int{102}},
			},
			Flows: []FlowSpec{
				{ID: 1, UE: 1, Scheme: "pbe"},
				{ID: 2, UE: 2, Scheme: "fixed", FixedRate: 1e6},
				{ID: 3, UE: 3, Scheme: "gcc"},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(sc *Scenario)
		want   string
	}{
		{"unknown_scheme", func(sc *Scenario) { sc.Flows[0].Scheme = "quic-magic" }, `"quic-magic"`},
		{"unknown_ue", func(sc *Scenario) { sc.Flows[0].UE = 77 }, "UE 77"},
		{"sfu_leg_without_sfu", func(sc *Scenario) { sc.Flows[2].SFULeg = true }, "flow 3"},
		{"ue_without_cells", func(sc *Scenario) { sc.UEs[1].NRCellIDs = nil }, "UE 2"},
		{"endc_two_nr_cells", func(sc *Scenario) { sc.UEs[2].NRCellIDs = []int{101, 102} }, "UE 3"},
		{"unknown_lte_cell", func(sc *Scenario) { sc.UEs[0].CellIDs = []int{1, 9} }, "cell 9"},
		{"unknown_nr_cell", func(sc *Scenario) { sc.UEs[1].NRCellIDs = []int{109} }, "cell 109"},
		{"duplicate_cell_id", func(sc *Scenario) { sc.NRCells[1].ID = 1 }, "cell 1 "},
		{"duplicate_ue_id", func(sc *Scenario) { sc.UEs[2].ID = 2 }, "UE 2"},
		{"lte_ids_name_nr_cell", func(sc *Scenario) { sc.UEs[0].CellIDs = []int{101} }, "cell 101"},
		{"nr_ids_name_lte_cell", func(sc *Scenario) { sc.UEs[1].NRCellIDs = []int{1} }, "cell 1 "},
		{"nr_bandwidth_without_prbs", func(sc *Scenario) { sc.NRCells[0].BandwidthMHz = 7 }, "NR cell 101"},
		{"negative_off_period", func(sc *Scenario) {
			sc.Flows[1].OnPeriod, sc.Flows[1].OffPeriod = time.Second, -time.Second
		}, "flow 2"},
		{"negative_start", func(sc *Scenario) { sc.Flows[0].Start = -time.Millisecond }, "flow 1"},
		{"negative_rtt_base", func(sc *Scenario) { sc.Flows[1].RTTBase = -time.Millisecond }, "flow 2 has negative RTTBase"},
		{"sharded_sfu_leg_without_rtt_base", func(sc *Scenario) {
			sc.Sharded, sc.SFU = true, true
			sc.Flows[2].SFULeg = true
		}, "flow 3 is an SFU leg"},
		{"stop_before_start", func(sc *Scenario) {
			sc.Duration = 4 * time.Second
			sc.Flows[1].Start, sc.Flows[1].Stop = 2*time.Second, time.Second
		}, "flow 2"},
		{"stop_after_duration", func(sc *Scenario) {
			sc.Duration = 4 * time.Second
			sc.Flows[2].Stop = 5 * time.Second
		}, "flow 3"},
		{"fluid_unknown_cell", func(sc *Scenario) {
			sc.Fluid = &FluidSpec{Sessions: map[int][]fluid.Session{1: {{RNTI: 70}}, 103: {{RNTI: 71}}}}
		}, "cell 103"},
		{"fluid_negative_on", func(sc *Scenario) {
			sc.Fluid = &FluidSpec{Sessions: map[int][]fluid.Session{101: {{RNTI: 72, On: -time.Millisecond}}}}
		}, "RNTI 72"},
		{"fluid_negative_modeled_cells", func(sc *Scenario) { sc.Fluid = &FluidSpec{ModeledCells: -4} }, "ModeledCells -4"},
		{"fluid_negative_users", func(sc *Scenario) { sc.Fluid = &FluidSpec{ModeledUsersPerCell: -2} }, "ModeledUsersPerCell -2"},
		{"fluid_modeled_without_users", func(sc *Scenario) { sc.Fluid = &FluidSpec{ModeledCells: 4} }, "ModeledUsersPerCell is 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mutate(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestFlowKindsHonourTheirPath holds every controlled flow kind - a bulk
// download, an RTC call and an SFU leg - to the one path buildFlow wires:
// capping flow 0's Internet bottleneck well below its free goodput caps
// the goodput, and no packet reaches the UE sooner than the data link's
// propagation delay, RTTBase/2.
func TestFlowKindsHonourTheirPath(t *testing.T) {
	for _, tc := range []struct {
		family string
		cap    float64 // bits/sec
	}{
		{"steady", 10e6}, // ~13.7 Mbit/s free
		{"rtc", 3e6},     // ~4.5 Mbit/s free
		{"sfu", 1e6},     // ~1.9 Mbit/s free
	} {
		t.Run(tc.family, func(t *testing.T) {
			t.Parallel()
			run := func(rate float64) *FlowResult {
				sc, err := BuildScenario(tc.family, "gcc", Params{Seed: 1, Duration: 4 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				fs := &sc.Flows[0]
				fs.InternetRate, fs.InternetQueue = rate, 1<<18
				fr := Run(sc).Flows[0]
				if minOWD := time.Duration(fr.Delay.Percentile(0) * float64(time.Millisecond)); minOWD < fs.RTTBase/2 {
					t.Errorf("rate %g: smallest one-way delay %v < RTTBase/2 = %v", rate, minOWD, fs.RTTBase/2)
				}
				return fr
			}
			free, capped := run(0).AvgTputMbps, run(tc.cap).AvgTputMbps
			t.Logf("goodput %.2f Mbit/s free, %.2f Mbit/s under a %g Mbit/s cap", free, capped, tc.cap/1e6)
			if capped > tc.cap/1e6 {
				t.Errorf("goodput %.2f Mbit/s through a %g Mbit/s Internet bottleneck", capped, tc.cap/1e6)
			}
			if capped >= free {
				t.Errorf("capped goodput %.2f Mbit/s not below the free run's %.2f", capped, free)
			}
		})
	}
}
