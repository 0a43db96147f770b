// Command pbesim runs a single end-to-end scenario and prints a summary:
// one flow of the chosen scheme over a configurable cellular path.
//
// Example:
//
//	pbesim -scheme pbe -duration 10s -rssi -93 -cells 2 -busy
//	pbesim -scheme bbr -internet-rate 10e6
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/obs"
	"pbecc/internal/phy"
	"pbecc/internal/trace"
)

func main() {
	scheme := flag.String("scheme", "pbe", "congestion control scheme")
	dur := flag.Duration("duration", 8*time.Second, "simulated duration")
	rssi := flag.Float64("rssi", -93, "signal strength in dBm")
	cells := flag.Int("cells", 1, "configured component carriers (1-3)")
	busy := flag.Bool("busy", false, "busy cell (control chatter + background users)")
	rtt := flag.Duration("rtt", 40*time.Millisecond, "server-tower round-trip propagation")
	internetRate := flag.Float64("internet-rate", 0, "Internet bottleneck rate in bits/s (0 = none)")
	seed := flag.Int64("seed", 1, "simulation seed")
	mobile := flag.Bool("mobility", false, "use the paper's -85/-105 dBm trajectory")
	series := flag.String("series", "", "write the run's time-series CSV to this file ('-' = stdout)")
	seriesFilter := flag.String("series-filter", "", "comma-separated signal names to keep in the -series CSV (default: all)")
	flag.Parse()

	if !slices.Contains(harness.Schemes, *scheme) {
		fmt.Fprintf(os.Stderr, "pbesim: unknown scheme %q\nregistered schemes:\n", *scheme)
		for _, s := range harness.Schemes {
			fmt.Fprintf(os.Stderr, "  %s\n", s)
		}
		os.Exit(2)
	}
	filter := parseSeriesFilter(*seriesFilter, *series != "")

	loc := harness.Location{
		Index: int(*seed), Name: "cli", Indoor: true,
		CCs: *cells, Busy: *busy, RSSI: *rssi,
	}
	sc := harness.LocationScenario(loc, *scheme, *dur)
	sc.Seed = *seed
	sc.Flows[0].RTTBase = *rtt
	if *internetRate > 0 {
		sc.Flows[0].InternetRate = *internetRate
		sc.Flows[0].InternetQueue = 1 << 18
	}
	if *mobile {
		sc.UEs[0].Trajectory = phy.PaperMobilityTrajectory()
	}
	if *busy {
		sc.Cells[0].Control = trace.Busy()
	}
	if *series != "" {
		sc.Series = true
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pbesim:", err)
		os.Exit(2)
	}

	r := harness.Run(sc)
	if *series != "" {
		if err := writeSeries(*series, r, filter); err != nil {
			fmt.Fprintln(os.Stderr, "pbesim:", err)
			os.Exit(2)
		}
	}
	f := r.Flows[0]
	fmt.Printf("scheme          %s\n", f.Scheme)
	fmt.Printf("duration        %v (seed %d)\n", *dur, *seed)
	fmt.Printf("avg throughput  %.2f Mbit/s\n", f.AvgTputMbps)
	fmt.Printf("tput p10/50/90  %.1f / %.1f / %.1f Mbit/s\n",
		f.Tput.Percentile(10), f.Tput.Percentile(50), f.Tput.Percentile(90))
	fmt.Printf("delay avg       %.1f ms\n", f.Delay.Mean())
	fmt.Printf("delay p50/95    %.1f / %.1f ms\n",
		f.Delay.Percentile(50), f.Delay.Percentile(95))
	fmt.Printf("packets         %d acked, %d lost\n", f.Received, f.Lost)
	if f.MeasuresInternetState() {
		fmt.Printf("internet state  %.1f%% of time\n", 100*f.InternetFrac)
	}
	if harness.SchemeUsesMonitor(f.Scheme) {
		fmt.Printf("capacity error  %.1f%% mean abs (vs noise-free oracle)\n", f.PBEErrPct)
	}
	fmt.Printf("CA triggered    %v\n", r.CATriggered)
}

// parseSeriesFilter validates the -series-filter value against the
// registered signal names, exiting 2 with the valid names on a typo -
// the same UX as an unknown -scheme, and for the same reason: a typo'd
// signal silently filtering everything away looks like an empty run.
func parseSeriesFilter(spec string, haveSeries bool) []string {
	if spec == "" {
		return nil
	}
	if !haveSeries {
		fmt.Fprintln(os.Stderr, "pbesim: -series-filter requires -series <file>")
		os.Exit(2)
	}
	valid := map[string]bool{}
	for _, n := range obs.SeriesNames() {
		valid[n] = true
	}
	var names []string
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !valid[n] {
			fmt.Fprintf(os.Stderr, "pbesim: unknown series %q in -series-filter\nregistered series:\n", n)
			for _, s := range obs.SeriesNames() {
				fmt.Fprintf(os.Stderr, "  %s\n", s)
			}
			os.Exit(2)
		}
		names = append(names, n)
	}
	return names
}

// writeSeries dumps the run's recorded series as CSV.
func writeSeries(path string, r *harness.Result, names []string) error {
	if r.Series == nil {
		return fmt.Errorf("run produced no series recorder")
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return r.Series.WriteCSVFiltered(w, names)
}
