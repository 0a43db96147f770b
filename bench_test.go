package pbecc

// One benchmark per table and figure of the paper's evaluation: each
// regenerates the experiment through the same code path as cmd/pbebench
// (quick mode keeps -bench=. tractable; run `pbebench -exp <id>` for the
// full grid and printed rows). Reported metric: wall time to regenerate
// the experiment.

import (
	"testing"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/netsim"
	"pbecc/internal/nr"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
	"pbecc/internal/sweep"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func(quick bool) []harness.Table
	for _, e := range harness.Experiments() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tables := run(true)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFigure2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFigure5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFigure6a(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFigure6b(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFigure7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFigure11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFigure16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFigure18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFigure19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFigure20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFigure21a(b *testing.B) { benchExperiment(b, "fig21a") }
func BenchmarkFigure21b(b *testing.B) { benchExperiment(b, "fig21b") }
func BenchmarkFigure21c(b *testing.B) { benchExperiment(b, "fig21c") }
func BenchmarkFigure21d(b *testing.B) { benchExperiment(b, "fig21d") }

// 5G NR benches: the nr-* experiments added with internal/nr.

func BenchmarkNRTput(b *testing.B)             { benchExperiment(b, "nr-tput") }
func BenchmarkNRBlockage(b *testing.B)         { benchExperiment(b, "nr-blockage") }
func BenchmarkNRDualConnectivity(b *testing.B) { benchExperiment(b, "nr-dc") }
func BenchmarkNRCompete(b *testing.B)          { benchExperiment(b, "nr-compete") }

// BenchmarkNRSlotScheduling isolates the NR cell's slot loop from the
// transport stack: four saturated users on a µ=3 mmWave carrier, 8000
// scheduling slots per simulated second.
func BenchmarkNRSlotScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.New(1)
		cell := nr.NewCell(eng, nr.Config{ID: 1, Mu: 3, BandwidthMHz: 100})
		for u := 0; u < 4; u++ {
			ue := nr.NewUE(eng, u, uint16(61+u))
			ue.AddCell(cell, phy.NewStaticChannel(-85, cell.Table, nil))
			ue.SetDefaultHandler(&netsim.Sink{Pool: netsim.PoolOf(eng)})
			netsim.NewCrossTraffic(eng, ue, 400e6, u+1).Start()
		}
		eng.RunUntil(time.Second)
		if cell.Slot() != 8000 {
			b.Fatalf("ran %d slots, want 8000", cell.Slot())
		}
	}
}

// RTC benches: the frame-level media subsystem. BenchmarkRTCCall is the
// one-to-one adaptive call; BenchmarkSFUFanout is the 32-subscriber
// fan-out across LTE and NR cells, the heaviest scenario the sweep's
// regression gate tracks.

func benchFamily(b *testing.B, family, scheme string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sc, err := harness.BuildScenario(family, scheme, harness.Params{Seed: 1, Duration: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		res := harness.Run(sc)
		if res.Flows[0].Frames == nil || res.Flows[0].Frames.Released == 0 {
			b.Fatalf("%s/%s released no frames", family, scheme)
		}
	}
}

func BenchmarkRTCCallPBE(b *testing.B)   { benchFamily(b, "rtc", "pbe") }
func BenchmarkRTCCallGCC(b *testing.B)   { benchFamily(b, "rtc", "gcc") }
func BenchmarkSFUFanoutPBE(b *testing.B) { benchFamily(b, "sfu", "pbe") }
func BenchmarkSFUFanoutGCC(b *testing.B) { benchFamily(b, "sfu", "gcc") }

// Metro benches: the acceptance scale of the sharded engine - 128 cells
// (64 LTE + 64 NR), 2048 UEs, mixed bulk/rtc/sfu flows with background
// churn, one simulated second. The only difference between the variants
// is the parallel shard width, so their ratio is the intra-scenario
// speedup (expect >=2x at 4 shards on a 4-core runner; on a single core
// they should be within a few percent of each other, the window-barrier
// overhead). Byte-identity across widths is enforced by the harness
// property test and CI's metro determinism gate; here the reported
// measured-Mbit/s metric makes a divergence visible at a glance.

func benchMetro(b *testing.B, shards int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sc, err := harness.BuildScenario("metro", "pbe", harness.Params{
			Seed: 1, Duration: time.Second, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		res := harness.Run(sc)
		f := res.Flows[0]
		if f.Received == 0 {
			b.Fatal("measured flow received nothing")
		}
		b.ReportMetric(f.AvgTputMbps, "measured-Mbit/s")
	}
}

func BenchmarkMetro1Shard(b *testing.B)  { benchMetro(b, 1) }
func BenchmarkMetro2Shards(b *testing.B) { benchMetro(b, 2) }
func BenchmarkMetro4Shards(b *testing.B) { benchMetro(b, 4) }
func BenchmarkMetro8Shards(b *testing.B) { benchMetro(b, 8) }

// BenchmarkMetroSmokeSlice is the CI-sized metro (8 cells, 128 UEs), the
// unit the metro determinism gate and BENCH_metro_baseline.json track.
func BenchmarkMetroSmokeSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := harness.BuildScenario("metro", "pbe", harness.Params{
			Seed: 1, Cells: 8, Duration: 500 * time.Millisecond, Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if harness.Run(sc).Flows[0].Received == 0 {
			b.Fatal("measured flow received nothing")
		}
	}
}

// BenchmarkSmokeSweep is the sweep path's allocation gate: the 160-job CI
// smoke matrix on one worker (run with -benchtime 1x). Its B/op and
// allocs/op are what per-job set-up plus the per-packet loop cost, summed
// over every family, scheme and RAT the smoke matrix crosses.
func BenchmarkSmokeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(sweep.Smoke(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 160 {
			b.Fatalf("smoke matrix ran %d jobs, want 160", len(res.Rows))
		}
	}
}

// Ablation benches: the design-choice studies DESIGN.md calls out.

func BenchmarkAblationSuite(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkAblationDecode compares the oracle monitor path against the
// bit-level PDCCH blind-decode path on the same scenario, reporting the
// cost of real decoding.
func BenchmarkAblationDecode(b *testing.B) {
	for _, mode := range []struct {
		name   string
		decode bool
	}{{"oracle", false}, {"pdcch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loc := harness.Location{Index: 300, Name: "decode", Indoor: true,
					CCs: 1, Busy: false, RSSI: -91}
				sc := harness.LocationScenario(loc, "pbe", 500e6) // 500 ms
				sc.MonitorDecodesPDCCH = mode.decode
				r := harness.Run(sc)
				if r.Flows[0].Received == 0 {
					b.Fatal("no packets")
				}
			}
		})
	}
}

// BenchmarkAblationFilter quantifies the §4.2.1 control-traffic filter on
// a busy cell: disabling it inflates N and shrinks the fair share.
func BenchmarkAblationFilter(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"filter-on", false}, {"filter-off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				loc := harness.Location{Index: 301, Name: "filter", Indoor: true,
					CCs: 1, Busy: true, RSSI: -91}
				sc := harness.LocationScenario(loc, "pbe", 3e9) // 3 s
				sc.DisableUserFilter = mode.disable
				tput = harness.Run(sc).Flows[0].AvgTputMbps
			}
			b.ReportMetric(tput, "Mbit/s")
		})
	}
}
