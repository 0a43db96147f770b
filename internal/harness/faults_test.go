package harness

import (
	"testing"
	"time"

	"pbecc/internal/faults"
	"pbecc/internal/obs"
)

// faultCounterNames are the injection counters the property tests watch.
var faultCounterNames = []string{
	"faults.stale_windows",
	"faults.stale_subframes",
	"faults.miss_delays",
	"faults.handover_bursts",
	"faults.onoff_flows",
}

// TestFaultCountersZeroWhenAxesOff is the off-is-really-off property:
// with every fault axis at zero, nothing in the fault layer runs, so
// every injection counter in the obs snapshot stays zero.
func TestFaultCountersZeroWhenAxesOff(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	sc, err := BuildScenario("steady", "pbe", Params{Seed: 3, Duration: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	Run(sc)
	snap := obs.TakeSnapshot()
	for _, name := range faultCounterNames {
		if v := snap.Counters[name]; v != 0 {
			t.Errorf("counter %s = %d on a clean run, want 0", name, v)
		}
	}
}

// TestFaultAxesRecordActivity: each monitor axis at full intensity must
// register injections in the obs snapshot, and the OnOff axis must stand
// up its competitor flow.
func TestFaultAxesRecordActivity(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	sc, err := BuildScenario("steady", "pbe", Params{
		Seed: 3, Duration: 600 * time.Millisecond,
		Faults: faults.Spec{Stale: 1, Miss: 1, Handover: 1, OnOff: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	Run(sc)
	snap := obs.TakeSnapshot()
	for _, name := range faultCounterNames {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s stayed zero with every axis active", name)
		}
	}
}

// TestOnOffCompetitorAssembly: the OnOff axis adds exactly one
// fixed-rate square-wave flow on the measured UE's primary cell, with
// the half-period tuned to the monitor window.
func TestOnOffCompetitorAssembly(t *testing.T) {
	sc, err := BuildScenario("steady", "pbe", Params{
		Seed: 3, Duration: 400 * time.Millisecond, Faults: faults.Spec{OnOff: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.UEs) != 2 || len(sc.Flows) != 2 {
		t.Fatalf("got %d UEs / %d flows, want 2/2", len(sc.UEs), len(sc.Flows))
	}
	adv := sc.Flows[1]
	if adv.Scheme != "fixed" || adv.FixedRate <= 0 {
		t.Fatalf("competitor flow = %+v, want a fixed-rate source", adv)
	}
	if adv.OnPeriod != faults.OnOffHalfPeriod || adv.OffPeriod != faults.OnOffHalfPeriod {
		t.Fatalf("competitor cadence on=%v off=%v, want %v", adv.OnPeriod, adv.OffPeriod, faults.OnOffHalfPeriod)
	}
	if got, want := sc.UEs[1].CellIDs[0], sc.UEs[0].CellIDs[0]; got != want {
		t.Fatalf("competitor on cell %d, want the measured UE's primary cell %d", got, want)
	}
}

// TestFaultsGrowEstimationError: the structured fault axes must move the
// PBEErrPct needle against the fault-free oracle - the signal the
// robustness scorecard ranks schemes by.
func TestFaultsGrowEstimationError(t *testing.T) {
	run := func(p Params) float64 {
		p.Seed, p.Duration = 4, 800*time.Millisecond
		sc, err := BuildScenario("steady", "pbe", p)
		if err != nil {
			t.Fatal(err)
		}
		return Run(sc).Flows[0].PBEErrPct
	}
	clean := run(Params{})
	faulted := run(Params{Faults: faults.Spec{Stale: 1, Handover: 1}})
	if faulted <= clean {
		t.Fatalf("PBEErrPct did not grow under faults: clean=%v faulted=%v", clean, faulted)
	}
}

// TestFaultedRunsAreDeterministic: identical fault parameters reproduce
// identical results run-to-run (the injector draws only from its own
// seeded stream).
func TestFaultedRunsAreDeterministic(t *testing.T) {
	run := func() (float64, float64, uint64) {
		sc, err := BuildScenario("steady", "pbe", Params{
			Seed: 9, Duration: 600 * time.Millisecond,
			Faults: faults.Spec{Stale: 0.7, Miss: 0.5, Handover: 0.8, OnOff: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := Run(sc)
		f := res.Flows[0]
		return f.AvgTputMbps, f.PBEErrPct, f.Received
	}
	t1, e1, r1 := run()
	t2, e2, r2 := run()
	if t1 != t2 || e1 != e2 || r1 != r2 {
		t.Fatalf("faulted run diverged: (%v,%v,%d) vs (%v,%v,%d)", t1, e1, r1, t2, e2, r2)
	}
}

// TestPbertcRunsEndToEnd: the hybrid scheme must carry an rtc-family
// call through the full harness - monitor attached, frames delivered.
func TestPbertcRunsEndToEnd(t *testing.T) {
	sc, err := BuildScenario("rtc", "pbertc", Params{Seed: 6, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(sc)
	fr := res.Flows[0]
	if fr.AvgTputMbps <= 0 {
		t.Fatal("pbertc media flow carried no traffic")
	}
	if fr.Frames == nil || fr.Frames.Released == 0 {
		t.Fatal("pbertc media flow delivered no frames")
	}
	if fr.PBEErrPct < 0 || fr.PBEErrPct > 100 {
		t.Fatalf("pbertc estimation error out of range: %v", fr.PBEErrPct)
	}
}

// TestPbertcFaultAxesApply: monitor faults must reach a pbertc flow's
// monitor (SchemeUsesMonitor gates the injector wiring).
func TestPbertcFaultAxesApply(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	sc, err := BuildScenario("rtc", "pbertc", Params{
		Seed: 6, Duration: 600 * time.Millisecond, Faults: faults.Spec{Stale: 1}})
	if err != nil {
		t.Fatal(err)
	}
	Run(sc)
	if obs.TakeSnapshot().Counters["faults.stale_windows"] == 0 {
		t.Fatal("stale axis never fired for a pbertc flow")
	}
}
