package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pbecc/internal/fluid"
	"pbecc/internal/obs"
)

// nationFingerprint extends the metro fingerprint with the fluid tier's
// accounting, so shard-width comparisons also cover the modeled
// population's chunked advancement.
func nationFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	if res.Fluid == nil {
		t.Fatal("nation run produced no fluid stats")
	}
	b, err := json.Marshal(struct {
		Flows []byte
		Fluid fluid.Stats
	}{metroFingerprint(t, res), *res.Fluid})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runNation(t *testing.T, shards int) []byte {
	t.Helper()
	sc, err := BuildScenario("nation", "pbe", Params{
		Seed: 3, Cells: 2, Duration: 200 * time.Millisecond, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return nationFingerprint(t, Run(sc))
}

// TestNationByteIdenticalAcrossShards is the fluid tier's determinism
// contract: the nation family - including the 65536-cell modeled
// population advanced by per-shard chunks - produces byte-identical
// results for any parallel width.
func TestNationByteIdenticalAcrossShards(t *testing.T) {
	base := runNation(t, 1)
	for _, shards := range []int{4, 8} {
		if got := runNation(t, shards); !bytes.Equal(base, got) {
			t.Fatalf("results differ between -shards 1 and -shards %d", shards)
		}
	}
}

// TestNationModeledMatchesTickers holds the modeled tier's goroutine to
// the path it replaced: every chunk advanced one window at a time at each
// time k·w <= Duration a shard ticker fired. The reference is the run
// without a modeled tier (the cell-bound sessions alone) plus that
// per-window pass over the same population and chunking; fluid.Stats
// must match under Float64bits, and the fluid counters exactly, for runs
// shorter than a window, at its edges and over many windows, at 1 and 4
// shards.
func TestNationModeledMatchesTickers(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	counters := []string{"fluid.envelope_updates", "fluid.session_on_windows", "fluid.offered_bits"}
	run := func(dur time.Duration, shards int, modeled bool) (*Scenario, *Result, obs.Snapshot) {
		sc, err := BuildScenario("nation", "pbe", Params{Seed: 3, Cells: 2, Duration: dur, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !modeled {
			sc.Fluid.ModeledCells = 0
		}
		obs.Reset()
		res := Run(sc)
		return sc, res, obs.TakeSnapshot()
	}
	ms := time.Millisecond
	for _, dur := range []time.Duration{ms, 39 * ms, 40 * ms, 41 * ms, 250 * ms, time.Second} {
		sc, bound, want := run(dur, 1, false)
		obs.Reset()
		w := fluid.DefaultWindow
		m := fluid.DrawModeled(NationModeledCells, NationModeledUsersPerCell, rand.New(rand.NewSource(sc.Seed*31337+17)), w)
		chunks := m.Chunks(len(bound.cluster.Shards()))
		for now := w; now <= dur; now += w {
			for _, ch := range chunks {
				ch.Advance(now)
			}
		}
		ticks := obs.TakeSnapshot()
		ref := *bound.Fluid
		ref.Add(m.Stats())

		for _, shards := range []int{1, 4} {
			_, res, got := run(dur, shards, true)
			g := *res.Fluid
			if math.Float64bits(g.OfferedBits) != math.Float64bits(ref.OfferedBits) ||
				math.Float64bits(g.ServedBits) != math.Float64bits(ref.ServedBits) ||
				math.Float64bits(g.DroppedBits) != math.Float64bits(ref.DroppedBits) || g != ref {
				t.Errorf("%v at %d shards: stats %+v, per-window tickers %+v", dur, shards, g, ref)
			}
			for _, name := range counters {
				if a, b := got.Counters[name], want.Counters[name]+ticks.Counters[name]; a != b {
					t.Errorf("%v at %d shards: %s = %d, per-window tickers %d", dur, shards, name, a, b)
				}
			}
		}
	}
}

// TestNationShortRunDrawsNothing: a run shorter than one envelope window
// never draws the modeled population (16 bytes a session, 16.8 MB), yet
// still reports its size.
func TestNationShortRunDrawsNothing(t *testing.T) {
	sc, err := BuildScenario("nation", "pbe", Params{Seed: 1, Duration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(sc)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Errorf("a 1 ms nation run allocated %d bytes, want under 4 MB", alloc)
	}
	if res.Fluid.Sessions != 1_048_624 || res.Fluid.Cells != 65_540 {
		t.Errorf("fluid stats report %d sessions on %d cells, want 1048624 on 65540", res.Fluid.Sessions, res.Fluid.Cells)
	}
}

// TestNationComposition: the family must deliver what its registry entry
// promises - a metro-style packet foreground with fluid background on
// every real cell, plus the fixed >=64k-cell / >=1M-user modeled tier.
func TestNationComposition(t *testing.T) {
	sc, err := BuildScenario("nation", "pbe", Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fluid == nil {
		t.Fatal("nation scenario has no fluid spec")
	}
	if sc.Fluid.ModeledCells < 1<<16 {
		t.Fatalf("modeled cells = %d, want >= 65536", sc.Fluid.ModeledCells)
	}
	if users := sc.Fluid.ModeledCells * sc.Fluid.ModeledUsersPerCell; users < 1_000_000 {
		t.Fatalf("modeled users = %d, want >= 1M", users)
	}
	// Every real cell carries cell-bound fluid sessions (slots 4-15).
	realCells := len(sc.Cells) + len(sc.NRCells)
	if got := len(sc.Fluid.Sessions); got != realCells {
		t.Fatalf("fluid sessions on %d cells, want all %d real cells", got, realCells)
	}
	got := sc.Fluid.ModeledCells * sc.Fluid.ModeledUsersPerCell
	for _, ss := range sc.Fluid.Sessions {
		got += len(ss)
	}
	if want := sc.Fluid.ModeledCells*sc.Fluid.ModeledUsersPerCell + realCells*12; got != want {
		t.Fatalf("total fluid sessions = %d, want %d", got, want)
	}
}

// metroEquivalenceTolerancePct is the documented fluid-vs-packet
// equivalence bound: converting the metro churn population (slots 4-15)
// from packet flows to rate envelopes moves the measured flow's
// throughput and p95 delay by at most this much. Measured headroom at
// the gate's parameters is ~12% worst-case across seeds and RATs.
const metroEquivalenceTolerancePct = 15

// TestMetroFluidEquivalence runs the metro-smoke job twice - packet
// background and fluid background - and holds the measured flow's
// throughput and p95 delay within the documented tolerance. This is the
// fidelity boundary of the hybrid: the fluid tier must load the cell
// like the packet population it replaces.
func TestMetroFluidEquivalence(t *testing.T) {
	for _, rat := range []string{RATLTE, RATNR} {
		base := Params{Seed: 1, Cells: 8, RAT: rat, Duration: 500 * time.Millisecond, Shards: 4}
		pkt := base
		fl := base
		fl.FluidBackground = true

		scPkt, err := BuildScenario("metro", "pbe", pkt)
		if err != nil {
			t.Fatal(err)
		}
		scFl, err := BuildScenario("metro", "pbe", fl)
		if err != nil {
			t.Fatal(err)
		}
		// The conversion must actually shrink the packet population: 12
		// of 16 slots per cell move to the fluid tier.
		if got, want := len(scPkt.UEs)-len(scFl.UEs), 8*12; got != want {
			t.Fatalf("%s: fluid conversion removed %d UEs, want %d", rat, got, want)
		}
		resPkt, resFl := Run(scPkt), Run(scFl)
		if resFl.Fluid == nil || resFl.Fluid.Sessions != 8*12 {
			t.Fatalf("%s: fluid run stats = %+v, want 96 sessions", rat, resFl.Fluid)
		}
		if resFl.Fluid.ServedBits <= 0 {
			t.Fatalf("%s: fluid background was never served", rat)
		}
		fp, ff := resPkt.Flows[0], resFl.Flows[0]
		checkWithin := func(metric string, a, b float64) {
			if a == 0 {
				t.Fatalf("%s: packet %s is zero", rat, metric)
			}
			if d := 100 * math.Abs(b-a) / a; d > metroEquivalenceTolerancePct {
				t.Errorf("%s: %s packet=%.2f fluid=%.2f (%.1f%% > %d%%)",
					rat, metric, a, b, d, metroEquivalenceTolerancePct)
			}
		}
		checkWithin("tput", fp.AvgTputMbps, ff.AvgTputMbps)
		checkWithin("delay p95", fp.Delay.Percentile(95), ff.Delay.Percentile(95))
	}
}

// TestMetroFluidOffIsNoop: without the flag the metro scenario must not
// grow a fluid spec, and runs must not report fluid stats - the committed
// packet baselines stay authoritative.
func TestMetroFluidOffIsNoop(t *testing.T) {
	sc, err := BuildScenario("metro", "pbe", Params{Seed: 1, Cells: 2, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fluid != nil {
		t.Fatalf("fluid spec present without the flag: %+v", sc.Fluid)
	}
	if res := Run(sc); res.Fluid != nil {
		t.Fatalf("fluid stats present without the flag: %+v", res.Fluid)
	}
}
