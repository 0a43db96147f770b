// Command pbetrace runs one scenario with the virtual-time trace
// recorder attached and writes Chrome trace-event JSON, viewable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: shard window spans,
// per-flow rate and window tracks, per-UE capacity estimate and truth
// tracks, and frame-shed instants, all on the simulation's virtual
// clock.
//
// Usage:
//
//	pbetrace -family steady -scheme pbe -out trace.json
//	pbetrace -family metro -scheme pbe -cells 8 -duration 500ms -shards 4 -out metro.json
//	pbetrace -family rtc -scheme gcc -seed 3 -out rtc.json
//	pbetrace -family rtc -scheme pbertc -fault-stale 1 -fault-handover 0.5 -out faulted.json
//
// The -fault-* flags drive the deterministic measurement-fault injector
// (internal/faults); each injection lands on the trace as an instant in
// the "faults" category, aligned with the rate and window tracks.
//
// Tracing observes the run without changing it: the scenario's results
// are byte-identical with the recorder on or off, for any -shards value.
package main

import (
	"flag"
	"fmt"
	"os"

	"pbecc/internal/faults"
	"pbecc/internal/harness"
	"pbecc/internal/obs"
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
	sc.Trace = true
	sc.Series = true

	res := harness.Run(sc)
	rec := res.Trace
	if rec == nil {
		fatal(fmt.Errorf("scenario produced no trace recorder"))
	}
	addSeriesTracks(rec, res.Series)
	if rec.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "pbetrace: ring overflow dropped %d oldest events within single windows\n", rec.Dropped)
	}
	fmt.Fprintf(os.Stderr, "pbetrace: %s/%s/%s seed %d: %d trace events\n",
		*family, *rat, *scheme, *seed, rec.Len())

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteChromeTrace(w); err != nil {
		fatal(err)
	}
}

// addSeriesTracks projects the run's recorded series onto the trace as
// counter tracks under a dedicated trace process: each flow's per-window
// pacing rate and window ("series/cc.rate/flow<id>", "series/cc.cwnd/...")
// next to the monitor's capacity estimate and the noise-free oracle's
// truth ("series/monitor.est/ue<id>", "series/monitor.truth/..."), on the
// same virtual clock as the shard spans and fault instants. The points are
// already 40 ms window aggregates, so even a metro trace adds only a few
// hundred events per track.
func addSeriesTracks(rec *obs.Recorder, series *obs.SeriesRecorder) {
	if series == nil {
		return
	}
	pid := 0
	for _, ev := range rec.Events() {
		if ev.Pid >= pid {
			pid = ev.Pid + 1
		}
	}
	sb := rec.NewBuffer(pid)
	for _, sig := range []struct{ name, unit string }{
		{"cc.rate", "flow"},
		{"cc.cwnd", "flow"},
		{"monitor.est", "ue"},
		{"monitor.truth", "ue"},
	} {
		for _, k := range series.Keys() {
			if k.Name != sig.name {
				continue
			}
			track := fmt.Sprintf("series/%s/%s%d", sig.name, sig.unit, k.Tid)
			for _, p := range series.TrackPoints(k.Name, k.Tid) {
				sb.CounterEvent(track, p.Time(), p.Mean)
			}
			rec.Drain(sb)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbetrace:", err)
	os.Exit(2)
}
