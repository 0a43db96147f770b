// Competition: reproduce the §6.3.3 drill-down. A PBE-CC flow shares a
// cell with an on-off 60 Mbit/s competitor; the example prints the PBE
// flow's rate and delay timeline and the same run with BBR, showing PBE
// quenching instantly when the competitor appears and grabbing the freed
// capacity the millisecond it leaves (the paper's Figure 19).
package main

import (
	"fmt"
	"log"
	"time"

	"pbecc/internal/harness"
)

// run runs the competition family's LTE scenario, cut to two competitor
// cycles, and returns the flow under test.
func run(scheme string) *harness.FlowResult {
	sc, err := harness.BuildScenario("competition", scheme, harness.Params{Duration: 16 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	return harness.Run(sc).Flows[0]
}

func main() {
	pbe, bbr := run("pbe"), run("bbr")

	fmt.Println("competitor: 60 Mbit/s, ON during [4,8)s and [12,16)s")
	fmt.Println("t(s)   pbe(Mbit/s)  bbr(Mbit/s)  competitor")
	for i, tm := range pbe.TimelineT {
		if i%5 != 0 {
			continue
		}
		comp := "off"
		phase := (tm - 4*time.Second) % (8 * time.Second)
		if tm >= 4*time.Second && phase < 4*time.Second {
			comp = "ON"
		}
		var bbrRate float64
		if i < len(bbr.TimelineR) {
			bbrRate = bbr.TimelineR[i]
		}
		fmt.Printf("%5.1f  %11.1f  %11.1f  %s\n", tm.Seconds(), pbe.TimelineR[i], bbrRate, comp)
	}
	fmt.Printf("\nsummary:       avg tput   avg delay   p95 delay\n")
	fmt.Printf("  pbe         %7.1f    %7.1f ms  %7.1f ms\n",
		pbe.AvgTputMbps, pbe.Delay.Mean(), pbe.Delay.Percentile(95))
	fmt.Printf("  bbr         %7.1f    %7.1f ms  %7.1f ms\n",
		bbr.AvgTputMbps, bbr.Delay.Mean(), bbr.Delay.Percentile(95))
	fmt.Println("\npaper Figure 18: PBE 57 Mbit/s @ 61/71 ms; BBR 62 Mbit/s @ 147/227 ms")
}
