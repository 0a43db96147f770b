// Mobility: reproduce the §6.3.2 drive test. The phone starts at
// -85 dBm, walks to -105 dBm over 13 s, returns quickly, and sits still;
// the example compares how PBE-CC and BBR track the capacity swing
// (the paper's Figures 16-17).
package main

import (
	"fmt"
	"log"
	"time"

	"pbecc/internal/harness"
)

// run runs the mobility family's LTE walk and returns its one flow.
func run(scheme string) *harness.FlowResult {
	sc, err := harness.BuildScenario("mobility", scheme, harness.Params{})
	if err != nil {
		log.Fatal(err)
	}
	return harness.Run(sc).Flows[0]
}

func avgWindow(f *harness.FlowResult, from, to time.Duration) float64 {
	var sum float64
	n := 0
	for i, tm := range f.TimelineT {
		if tm >= from && tm < to {
			sum += f.TimelineR[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func main() {
	pbe, bbr := run("pbe"), run("bbr")

	fmt.Println("trajectory: -85 dBm, move to -105 dBm over [13,26)s, back by 30s")
	fmt.Println("t(s)   pbe(Mbit/s)  bbr(Mbit/s)")
	for from := time.Duration(0); from < 40*time.Second; from += 2 * time.Second {
		fmt.Printf("%5.0f  %11.1f  %11.1f\n", from.Seconds(),
			avgWindow(pbe, from, from+2*time.Second),
			avgWindow(bbr, from, from+2*time.Second))
	}
	fmt.Printf("\nsummary:      avg tput    p95 delay\n")
	fmt.Printf("  pbe        %7.1f    %7.1f ms\n", pbe.AvgTputMbps, pbe.Delay.Percentile(95))
	fmt.Printf("  bbr        %7.1f    %7.1f ms\n", bbr.AvgTputMbps, bbr.Delay.Percentile(95))
	fmt.Println("\npaper Figure 16: PBE 55 Mbit/s @ p95 64 ms; BBR ~55 Mbit/s @ 156 ms")
}
