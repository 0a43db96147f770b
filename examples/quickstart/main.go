// Quickstart: run one PBE-CC flow over a simulated LTE cell and print the
// headline statistics. This is the smallest complete use of the library:
// build a scenario, run it, read the flow result.
package main

import (
	"fmt"
	"time"

	"pbecc/internal/harness"
)

func main() {
	sc := &harness.Scenario{
		Seed:     1,
		Duration: 8 * time.Second,
		// One 20 MHz cell (100 PRBs).
		Cells: []harness.CellSpec{{ID: 1}},
		// One phone at good signal strength (-93 dBm), no carrier
		// aggregation configured.
		UEs: []harness.UESpec{{ID: 1, RNTI: 61, CellIDs: []int{1}, RSSI: -93}},
		// One PBE-CC flow from a server 40 ms away.
		Flows: []harness.FlowSpec{{
			ID: 1, UE: 1, Scheme: "pbe", Start: 0,
			RTTBase: 40 * time.Millisecond,
		}},
	}

	r := harness.Run(sc)
	f := r.Flows[0]
	fmt.Println("PBE-CC on an idle 100-PRB cell, 40 ms RTT:")
	fmt.Printf("  average throughput : %.1f Mbit/s\n", f.AvgTputMbps)
	fmt.Printf("  one-way delay      : avg %.1f ms, p95 %.1f ms\n",
		f.Delay.Mean(), f.Delay.Percentile(95))
	fmt.Printf("  packets            : %d acked, %d lost\n", f.Received, f.Lost)
	fmt.Printf("  internet-state time: %.1f%%\n", 100*f.InternetFrac)

	// Compare against BBR under identical conditions (same seed).
	sc2 := *sc
	sc2.Flows = []harness.FlowSpec{{
		ID: 1, UE: 1, Scheme: "bbr", Start: 0, RTTBase: 40 * time.Millisecond,
	}}
	b := harness.Run(&sc2).Flows[0]
	fmt.Println("BBR, same cell and seed:")
	fmt.Printf("  average throughput : %.1f Mbit/s\n", b.AvgTputMbps)
	fmt.Printf("  one-way delay      : avg %.1f ms, p95 %.1f ms\n",
		b.Delay.Mean(), b.Delay.Percentile(95))
	fmt.Printf("\nPBE-CC delay reduction vs BBR: %.2fx (p95), at %.2fx the throughput\n",
		b.Delay.Percentile(95)/f.Delay.Percentile(95), f.AvgTputMbps/b.AvgTputMbps)
}
