// Command pbetrace runs one scenario with the series recorder on and
// writes its 40 ms series as Chrome trace-event JSON, viewable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one counter track per
// recorded signal instance ("series/cc.rate/1" is flow 1's pacing rate,
// "series/monitor.est/1" UE 1's capacity estimate) under the process of
// the shard that produced it, all on the simulation's virtual clock.
// Event signals (fault.inject, rtc.shed) drop to 0 in windows without an
// event, so each injection or frame shed shows as a pulse.
//
// Usage:
//
//	pbetrace -family steady -scheme pbe -out trace.json
//	pbetrace -family metro -scheme pbe -cells 8 -duration 500ms -shards 4 -out metro.json
//	pbetrace -family rtc -scheme gcc -seed 3 -out rtc.json
//	pbetrace -family rtc -scheme pbertc -fault-stale 1 -fault-handover 0.5 -out faulted.json
//
// The -fault-* flags drive the deterministic measurement-fault injector
// (internal/faults); each injection lands on the fault.inject track,
// aligned with the rate and window tracks.
//
// Recording observes the run without changing it: the scenario's results
// are byte-identical with the recorder on or off, and the trace is
// byte-identical for any -shards value.
package main

import (
	"flag"
	"fmt"
	"os"

	"pbecc/internal/faults"
	"pbecc/internal/harness"
)

func main() {
	family := flag.String("family", "steady", "scenario family (see pbesweep -list)")
	scheme := flag.String("scheme", "pbe", "congestion control scheme")
	rat := flag.String("rat", harness.RATLTE, "radio access technology: lte or nr")
	cells := flag.Int("cells", 0, "cell count (0 = family default)")
	seed := flag.Int64("seed", 1, "simulation seed")
	dur := flag.Duration("duration", 0, "simulated duration (0 = family default)")
	noise := flag.Float64("noise", 0, "capacity measurement noise std fraction")
	shards := flag.Int("shards", 0, "parallel shard width (0 = serial); never changes results")
	var fspec faults.Spec
	fspec.RegisterFlags(flag.CommandLine)
	out := flag.String("out", "-", "trace file ('-' = stdout)")
	flag.Parse()

	sc, err := harness.BuildScenario(*family, *scheme, harness.Params{
		Seed: *seed, Duration: *dur, Cells: *cells, RAT: *rat,
		CapacityNoise: *noise, Shards: *shards,
		Faults: fspec,
	})
	if err != nil {
		fatal(err)
	}
	sc.Series = true

	series := harness.Run(sc).Series
	fmt.Fprintf(os.Stderr, "pbetrace: %s/%s/%s seed %d: %d series points\n",
		*family, *rat, *scheme, *seed, series.Len())

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := series.WriteChromeTrace(w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbetrace:", err)
	os.Exit(2)
}
