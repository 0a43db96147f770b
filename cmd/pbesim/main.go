// Command pbesim runs one scenario of a family (harness.BuildScenario) and
// prints a summary of its first flow, whose path -rtt and -internet-rate
// override when non-zero. -series writes the run's 40 ms series: a path
// ending in .json gets Chrome trace-event JSON for Perfetto
// (ui.perfetto.dev) or chrome://tracing, one counter track per signal
// instance on the virtual clock; any other path gets CSV ('-' = stdout,
// which moves the summary to stderr). Recording never changes the run,
// and the series is byte-identical for any -shards.
//
// Examples:
//
//	pbesim -scheme pbe -duration 10s -rssi -93 -cells 2 -busy
//	pbesim -scheme bbr -internet-rate 10e6
//	pbesim -family steady -scheme pbe -series trace.json
//	pbesim -family metro -scheme pbe -cells 8 -duration 500ms -shards 4 -series metro.json
//	pbesim -family rtc -scheme pbertc -fault-stale 1 -fault-handover 0.5 -series faulted.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pbecc/internal/faults"
	"pbecc/internal/harness"
	"pbecc/internal/obs"
)

func main() {
	family := flag.String("family", "steady", "scenario family (see pbesweep -list)")
	scheme := flag.String("scheme", "pbe", "congestion control scheme")
	rat := flag.String("rat", harness.RATLTE, "radio access technology: lte or nr")
	seed := flag.Int64("seed", 1, "simulation seed")
	dur := flag.Duration("duration", 0, "simulated duration (0 = family default)")
	cells := flag.Int("cells", 0, "cell count (0 = family default)")
	busy := flag.Bool("busy", false, "busy cell (control chatter + background users)")
	rssi := flag.Float64("rssi", 0, "signal strength in dBm (0 = family default)")
	noise := flag.Float64("noise", 0, "capacity measurement noise std fraction")
	shards := flag.Int("shards", 0, "parallel shard width (0 = serial); never changes results")
	var fspec faults.Spec
	fspec.RegisterFlags(flag.CommandLine)
	rtt := flag.Duration("rtt", 0, "first flow's server-tower round-trip propagation (0 = family default)")
	internetRate := flag.Float64("internet-rate", 0, "Internet bottleneck rate on the first flow in bits/s (0 = none)")
	series := flag.String("series", "", "write the run's series to this file: trace JSON if it ends in .json, else CSV ('-' = stdout)")
	seriesFilter := flag.String("series-filter", "", "comma-separated signal names to keep in the -series CSV (default: all)")
	flag.Parse()

	filter := parseSeriesFilter(*seriesFilter, *series)
	sc, err := harness.BuildScenario(*family, *scheme, harness.Params{
		Seed: *seed, Duration: *dur, Cells: *cells, RAT: *rat, Busy: *busy, RSSI: *rssi,
		CapacityNoise: *noise, Shards: *shards, Faults: fspec,
	})
	if err != nil {
		fatal(err)
	}
	if *rtt > 0 {
		sc.Flows[0].RTTBase = *rtt
	}
	if *internetRate > 0 {
		sc.Flows[0].InternetRate = *internetRate
		sc.Flows[0].InternetQueue = 1 << 18
	}
	sc.Series = *series != ""

	r := harness.Run(sc)
	out := os.Stdout
	if *series != "" {
		if err := writeSeries(*series, r.Series, filter); err != nil {
			fatal(err)
		}
		if *series == "-" {
			out = os.Stderr
		}
	}
	f := r.Flows[0]
	fmt.Fprintf(out, "scheme          %s (%s/%s)\n", f.Scheme, *family, *rat)
	fmt.Fprintf(out, "duration        %v (seed %d)\n", sc.Duration, sc.Seed)
	fmt.Fprintf(out, "avg throughput  %.2f Mbit/s\n", f.AvgTputMbps)
	fmt.Fprintf(out, "tput p10/50/90  %.1f / %.1f / %.1f Mbit/s\n",
		f.Tput.Percentile(10), f.Tput.Percentile(50), f.Tput.Percentile(90))
	fmt.Fprintf(out, "delay avg       %.1f ms\n", f.Delay.Mean())
	fmt.Fprintf(out, "delay p50/95    %.1f / %.1f ms\n",
		f.Delay.Percentile(50), f.Delay.Percentile(95))
	fmt.Fprintf(out, "packets         %d acked, %d lost\n", f.Received, f.Lost)
	if f.MeasuresInternetState() {
		fmt.Fprintf(out, "internet state  %.1f%% of time\n", 100*f.InternetFrac)
	}
	if harness.SchemeUsesMonitor(f.Scheme) {
		fmt.Fprintf(out, "capacity error  %.1f%% mean abs (vs noise-free oracle)\n", f.PBEErrPct)
	}
	fmt.Fprintf(out, "CA triggered    %v\n", r.CATriggered)
}

// parseSeriesFilter validates the -series-filter names, exiting 2 with the
// registered names on a typo: a typo'd signal silently filtering everything
// away would look like an empty run.
func parseSeriesFilter(spec, path string) []string {
	switch {
	case spec == "":
		return nil
	case path == "":
		fatal(fmt.Errorf("-series-filter requires -series <file>"))
	case strings.HasSuffix(path, ".json"):
		fatal(fmt.Errorf("-series-filter applies to CSV only; the .json trace keeps every series"))
	}
	var names []string
	for _, n := range strings.Split(spec, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if !slices.Contains(obs.SeriesNames(), n) {
			fatal(fmt.Errorf("unknown series %q in -series-filter (registered: %s)",
				n, strings.Join(obs.SeriesNames(), ", ")))
		}
		names = append(names, n)
	}
	return names
}

// writeSeries writes the recorded series to path: trace-event JSON for a
// .json path, CSV otherwise.
func writeSeries(path string, s *obs.SeriesRecorder, names []string) error {
	write := func(w io.Writer) error { return s.WriteCSVFiltered(w, names) }
	if strings.HasSuffix(path, ".json") {
		write = s.WriteChromeTrace
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbesim:", err)
	os.Exit(2)
}
