package harness

import (
	"testing"
	"time"
)

func TestBuildScenarioValidation(t *testing.T) {
	if _, err := BuildScenario("nosuch", "pbe", Params{}); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := BuildScenario("steady", "nosuch", Params{}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := BuildScenario("steady", "pbe", Params{RAT: "wimax"}); err == nil {
		t.Fatal("unknown RAT accepted")
	}
	for _, f := range Families() {
		for _, rat := range []string{RATLTE, RATNR} {
			sc, err := BuildScenario(f.ID, "pbe", Params{RAT: rat})
			if err != nil {
				t.Fatalf("%s/%s: %v", f.ID, rat, err)
			}
			if sc.Duration <= 0 {
				t.Fatalf("%s/%s: no default duration", f.ID, rat)
			}
			if len(sc.Flows) == 0 || sc.Flows[0].Scheme != "pbe" {
				t.Fatalf("%s/%s: first flow is not the scheme under test", f.ID, rat)
			}
		}
	}
}

// TestParamsOverrideKnobs checks the sweep axes actually land in the
// scenario.
func TestParamsOverrideKnobs(t *testing.T) {
	p := Params{Seed: 777, Duration: 3 * time.Second, Cells: 2, Busy: true,
		RSSI: -97, CapacityNoise: 0.2}
	sc, err := BuildScenario("steady", "pbe", p)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 777 {
		t.Fatalf("Seed = %d, want 777", sc.Seed)
	}
	if sc.Duration != 3*time.Second {
		t.Fatalf("Duration = %v, want 3s", sc.Duration)
	}
	if len(sc.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(sc.Cells))
	}
	if sc.CapacityNoise != 0.2 {
		t.Fatalf("CapacityNoise = %v, want 0.2", sc.CapacityNoise)
	}
	if sc.UEs[0].RSSI != -97 {
		t.Fatalf("RSSI = %v, want -97", sc.UEs[0].RSSI)
	}
	if len(sc.UEs) != 3 {
		t.Fatalf("busy steady scenario has %d UEs, want 3 (1 + 2 background)", len(sc.UEs))
	}
	// The seed is a multiple of 3: it must not pick the location grid's
	// Internet-bottlenecked path, which keys on the location index.
	if sc.Flows[0].InternetRate != 0 {
		t.Fatalf("busy steady scenario has a %v bit/s Internet bottleneck, want none", sc.Flows[0].InternetRate)
	}

	nrSC, err := BuildScenario("steady", "pbe", Params{RAT: RATNR, Cells: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(nrSC.NRCells) != 2 || len(nrSC.UEs[0].NRCellIDs) != 2 {
		t.Fatalf("NR steady with Cells=2: %d cells, UE on %d",
			len(nrSC.NRCells), len(nrSC.UEs[0].NRCellIDs))
	}
}

// TestFamilyDefaultsMatchFigures pins that the families with zero Params
// reproduce the figure experiments' scenarios (the refactor from closed
// closures must not move the figures).
func TestFamilyDefaultsMatchFigures(t *testing.T) {
	m := MobilityScenario("pbe", Params{Duration: 40 * time.Second})
	if m.Seed != 16 || len(m.Cells) != 1 || m.UEs[0].Trajectory == nil {
		t.Fatalf("mobility defaults drifted: seed=%d cells=%d", m.Seed, len(m.Cells))
	}
	c := CompetitionScenario("pbe", Params{Duration: 40 * time.Second})
	if c.Seed != 18 || c.Flows[1].FixedRate != 60e6 || c.Flows[1].OnPeriod != 4*time.Second {
		t.Fatalf("competition defaults drifted: seed=%d rate=%v", c.Seed, c.Flows[1].FixedRate)
	}
	f := MultiflowScenario("pbe", Params{Duration: 20 * time.Second})
	if f.Seed != 20 || len(f.Flows) != 2 || f.Flows[1].RTTBase != 56*time.Millisecond {
		t.Fatalf("multiflow defaults drifted: seed=%d flows=%d", f.Seed, len(f.Flows))
	}
	n := CompetitionScenario("pbe", Params{Duration: 16 * time.Second, RAT: RATNR})
	if n.Seed != 3300 || n.Flows[1].FixedRate != 300e6 {
		t.Fatalf("nr competition defaults drifted: seed=%d rate=%v", n.Seed, n.Flows[1].FixedRate)
	}
}

// TestCompetitionScalesToShortSweeps pins that sweep-length competition
// jobs still run their competitor: the paper's fixed 4 s cadence scales
// down once it no longer fits the duration.
func TestCompetitionScalesToShortSweeps(t *testing.T) {
	short := CompetitionScenario("pbe", Params{Duration: time.Second})
	comp := short.Flows[1]
	if comp.Start >= short.Duration {
		t.Fatalf("competitor starts at %v, after the %v scenario ends", comp.Start, short.Duration)
	}
	if comp.OnPeriod <= 0 || comp.Start+comp.OnPeriod > short.Duration {
		t.Fatalf("competitor on-phase %v does not fit the scenario", comp.OnPeriod)
	}
}

// TestCapacityNoiseIsDeterministicPerSeed runs the same noisy scenario
// twice and a different noise level once: identical seeds must agree
// exactly, and noise must actually perturb behaviour.
func TestCapacityNoiseIsDeterministicPerSeed(t *testing.T) {
	build := func(noise float64) *FlowResult {
		sc, err := BuildScenario("steady", "pbe", Params{
			Seed: 42, Duration: 1500 * time.Millisecond, CapacityNoise: noise})
		if err != nil {
			t.Fatal(err)
		}
		return Run(sc).Flows[0]
	}
	a, b := build(0.3), build(0.3)
	if a.AvgTputMbps != b.AvgTputMbps || a.Received != b.Received {
		t.Fatalf("same seed+noise diverged: %v/%v vs %v/%v",
			a.AvgTputMbps, a.Received, b.AvgTputMbps, b.Received)
	}
	clean := build(0)
	if clean.AvgTputMbps == a.AvgTputMbps && clean.Received == a.Received {
		t.Fatal("30% capacity noise left the run byte-identical to the clean run")
	}
}

func TestNominalCapacityMbps(t *testing.T) {
	lte, err := BuildScenario("steady", "pbe", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := lte.NominalCapacityMbps(); got < 100 || got > 400 {
		t.Fatalf("LTE 100-PRB nominal capacity = %.1f Mbit/s, want O(100)", got)
	}
	nr, err := BuildScenario("steady", "pbe", Params{RAT: RATNR})
	if err != nil {
		t.Fatal(err)
	}
	if got := nr.NominalCapacityMbps(); got < 800 {
		t.Fatalf("NR µ=1 100 MHz nominal capacity = %.1f Mbit/s, want near 1 Gbit/s", got)
	}
}

// TestParamsValidate: invalid axis values must be rejected with a clear
// error instead of silently collapsing to a family default.
func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Cells: -1},
		{CapacityNoise: -0.1},
		{RAT: "wimax"},
		{Shards: -2},
		{Duration: -time.Second},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
		if _, err := BuildScenario("steady", "pbe", p); err == nil {
			t.Errorf("BuildScenario accepted %+v", p)
		}
	}
	good := []Params{
		{},
		{RAT: RATNR, Cells: 2, Shards: 4, CapacityNoise: 0.1},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", p, err)
		}
	}
}

// TestCellAxisFamiliesBuildAtTheirMaximum builds every family that honors
// Params.Cells at the most cells it advertises, on both RATs. NR cells
// used to number from 101 whatever the LTE count, so metro and nation
// above 200 cells and sfu above 100 per RAT declared a cell twice.
func TestCellAxisFamiliesBuildAtTheirMaximum(t *testing.T) {
	maxCells := map[string]struct{ cells, total int }{
		"steady": {3, 3},     // LTE aggregates 1-3 carriers
		"rtc":    {3, 3},     // the steady topology
		"sfu":    {128, 256}, // cells per RAT
		"metro":  {256, 256},
		"nation": {256, 256}, // the packet foreground
	}
	for _, f := range Families() {
		if !f.CellsAxis {
			continue
		}
		want, ok := maxCells[f.ID]
		if !ok {
			t.Fatalf("family %q honors Params.Cells but has no maximum in this table", f.ID)
		}
		for _, rat := range []string{RATLTE, RATNR} {
			sc, err := BuildScenario(f.ID, "pbe", Params{RAT: rat, Cells: want.cells})
			if err != nil {
				t.Fatalf("%s/%s at %d cells: %v", f.ID, rat, want.cells, err)
			}
			if got := len(sc.Cells) + len(sc.NRCells); got != want.total {
				t.Fatalf("%s/%s at %d cells built %d cells, want %d", f.ID, rat, want.cells, got, want.total)
			}
		}
	}
}
