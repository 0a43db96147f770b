// 5G NR walkthrough: the three scenarios the internal/nr subsystem adds
// on top of the paper's LTE testbed.
//
//  1. A standalone NR cell (µ=1, 100 MHz, 273 PRBs, 256-QAM): PBE-CC
//     reads per-slot grants off the control channel - 2000 slots/s
//     instead of LTE's 1000 subframes/s - and fills the carrier without
//     queueing delay.
//  2. An mmWave cell (µ=3, 120 kHz SCS, 0.125 ms slots) hit by an abrupt
//     blockage: capacity collapses ~90x within 10 ms. PBE-CC sees the
//     collapse in the next few slots and paces down before the queue
//     builds; a loss-based sender keeps pushing until drops force it off.
//  3. An EN-DC device (LTE anchor + NR secondary): sustained demand
//     activates the NR leg and the monitor aggregates capacity across the
//     two RATs' different slot clocks.
package main

import (
	"fmt"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/nr"
	"pbecc/internal/trace"
)

func main() {
	standalone()
	blockage()
	dualConnectivity()
}

func standalone() {
	fmt.Println("1. Standalone NR cell: µ=1, 100 MHz, idle")
	for _, scheme := range []string{"pbe", "bbr"} {
		sc := harness.NRScenario(scheme, 1, 100, -88, false, 4*time.Second)
		f := harness.Run(sc).Flows[0]
		fmt.Printf("   %-4s: %6.1f Mbit/s, delay p50 %5.1f ms, p95 %5.1f ms\n",
			scheme, f.AvgTputMbps, f.Delay.Percentile(50), f.Delay.Percentile(95))
	}
	fmt.Println()
}

func blockage() {
	fmt.Println("2. mmWave blockage: µ=3, 100 MHz, 35 dB blockage at t=1.5..2.5s")
	for _, scheme := range []string{"pbe", "cubic"} {
		sc := &harness.Scenario{
			Name: "nr5g-blockage-" + scheme, Seed: 42, Duration: 4 * time.Second,
			NRCells: []harness.NRCellSpec{{ID: 101, Mu: 3, BandwidthMHz: 100,
				Control: trace.Idle()}},
			UEs: []harness.UESpec{{ID: 1, RNTI: 61, NRCellIDs: []int{101},
				Trajectory: nr.BlockageTrajectory(-80, 35,
					1500*time.Millisecond, 2500*time.Millisecond)}},
			Flows: []harness.FlowSpec{{ID: 1, UE: 1, Scheme: scheme,
				RTTBase: 20 * time.Millisecond}},
		}
		f := harness.Run(sc).Flows[0]
		fmt.Printf("   %-5s: %6.1f Mbit/s avg, delay avg %5.1f ms, p95 %5.1f ms\n",
			scheme, f.AvgTputMbps, f.Delay.Mean(), f.Delay.Percentile(95))
	}
	fmt.Println()
}

func dualConnectivity() {
	fmt.Println("3. EN-DC: 20 MHz LTE anchor + µ=1 100 MHz NR secondary")
	sc := &harness.Scenario{
		Name: "nr5g-endc", Seed: 7, Duration: 4 * time.Second,
		Cells:   []harness.CellSpec{{ID: 1, NPRB: 100, Control: trace.Idle()}},
		NRCells: []harness.NRCellSpec{{ID: 101, Mu: 1, BandwidthMHz: 100, Control: trace.Idle()}},
		UEs: []harness.UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1},
			NRCellIDs: []int{101}, RSSI: -90}},
		Flows: []harness.FlowSpec{{ID: 1, UE: 1, Scheme: "pbe",
			RTTBase: 40 * time.Millisecond}},
	}
	r := harness.Run(sc)
	f := r.Flows[0]
	fmt.Printf("   pbe  : %6.1f Mbit/s, NR secondary activated: %v\n",
		f.AvgTputMbps, r.NRActivated)
	fmt.Println("   (the LTE anchor alone tops out near 75 Mbit/s at this signal strength)")
}
