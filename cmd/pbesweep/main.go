// Command pbesweep runs a declarative scenario-matrix sweep across a
// bounded worker pool and emits machine-readable JSON results, or diffs
// two result files for the CI benchmark-regression gate.
//
// Usage:
//
//	pbesweep -spec sweep.json -workers 8 -out results.json
//	pbesweep -smoke -out BENCH_PR.json          # built-in CI smoke matrix
//	pbesweep -metro-smoke -shards 4 -out m.json # city-scale sharded slice
//	pbesweep -nation-smoke -shards 8 -out n.json # 64k-cell fluid-tier slice
//	pbesweep -scorecard -out scorecard.json     # robustness ranking under faults
//	pbesweep -traj-smoke -out traj.json         # trajectory slice (convergence/tracking gates)
//	pbesweep -obs-diff base.obs.json cur.obs.json # snapshot diff (spec-hash checked)
//	pbesweep -diff -max-regress 10 BENCH_baseline.json BENCH_PR.json
//	pbesweep -scorecard-diff BENCH_scorecard_baseline.json scorecard.json
//	pbesweep -benchdiff base_bench.txt cur_bench.txt  # go test -bench gate
//	pbesweep -list                              # families, schemes, axes, built-in specs
//
// Results are bit-identical for any -workers value (every job starts from
// its own seeded engine state, on engines its worker recycles, and rows
// land at their matrix index) and for any
// -shards value (inside a sharded job, the shard topology and mailbox
// merge order are fixed; -shards only sets how many shards advance
// concurrently). The -obs flag enables the metrics registry for the run
// and writes a snapshot next to the result; it never changes the result
// bytes (CI enforces this). Two snapshot counters, sim.event_pool_reuse and
// sim.packet_pool_reuse, depend on -workers: each worker reuses its engines
// from job to job, so reuse depends on what a worker ran before.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pbecc/internal/faults"
	"pbecc/internal/harness"
	"pbecc/internal/obs"
	"pbecc/internal/sweep"
)

func main() {
	specPath := flag.String("spec", "", "sweep spec JSON file")
	smoke := flag.Bool("smoke", false, "run the built-in CI smoke matrix")
	metroSmoke := flag.Bool("metro-smoke", false, "run the built-in city-scale metro smoke slice")
	nationSmoke := flag.Bool("nation-smoke", false, "run the built-in nation-scale fluid-tier smoke slice")
	trajSmoke := flag.Bool("traj-smoke", false, "run the built-in trajectory slice (steady family, all schemes, series analytics)")
	fluidBG := flag.Bool("fluid", false, "convert background churn to the fluid tier (sets the spec's \"fluid\" field; the nation family is always fluid)")
	scorecard := flag.Bool("scorecard", false, "run the built-in robustness scorecard (schemes x fault axes) and write the ranked result; a spec with fault_axes can substitute via -spec")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "parallel shard width inside sharded jobs (0 = serial); never changes results")
	out := flag.String("out", "-", "result file ('-' = stdout)")
	obsOn := flag.Bool("obs", false, "enable the metrics registry and write a snapshot to <out>.obs.json (stderr when -out is '-'); never changes the result")
	diff := flag.Bool("diff", false, "diff two result files: pbesweep -diff [-max-regress N] base.json cur.json")
	obsDiff := flag.Bool("obs-diff", false, "diff two -obs snapshot files: pbesweep -obs-diff base.obs.json cur.obs.json (rejects snapshots of different specs)")
	scorecardDiff := flag.Bool("scorecard-diff", false, "diff two scorecard files: pbesweep -scorecard-diff [-max-regress N] base.json cur.json (robustness budget in percentage points)")
	maxRegress := flag.Float64("max-regress", 10, "with -diff/-benchdiff: fail when any tracked metric (for -benchdiff: B/op, allocs/op) regresses more than this percentage")
	benchDiff := flag.Bool("benchdiff", false, "diff two 'go test -bench -benchmem' output files: pbesweep -benchdiff [-max-regress N] [-allow-missing] base.txt cur.txt (ns/op is printed, never gated)")
	allowMissing := flag.Bool("allow-missing", false, "with -benchdiff: tolerate benchmarks present on only one side (base-ref comparisons that predate new benchmarks)")
	list := flag.Bool("list", false, "list scenario families, schemes and spec axes")
	prof := obs.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case *list:
		listAxes()
	case *diff:
		runDiff(flag.Args(), *maxRegress)
	case *obsDiff:
		runObsDiff(flag.Args())
	case *scorecardDiff:
		runScorecardDiff(flag.Args(), *maxRegress)
	case *benchDiff:
		runBenchDiff(flag.Args(), *maxRegress, *allowMissing)
	default:
		stopProf, err := prof.Start()
		if err != nil {
			fatal(err)
		}
		runSweep(*specPath, *smoke, *metroSmoke, *nationSmoke, *trajSmoke, *scorecard, *workers, *shards, *out, *obsOn, *fluidBG)
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}
}

func listAxes() {
	fmt.Println("scenario families (spec \"experiments\"):")
	for _, f := range harness.Families() {
		fmt.Printf("  %-12s %s (rats: %v)\n", f.ID, f.Title, f.RATs)
	}
	fmt.Printf("schemes: %v\n", harness.Schemes)
	fmt.Println("other axes: seeds, rats, cell_counts, noise_levels, busy, duration_ms, fluid")
	fmt.Printf("fault axes (spec \"fault_axes\" + \"fault_levels\", see -scorecard): %v\n", faults.Axes())
	fmt.Println("built-in specs (job counts include the fault-axis expansion):")
	for _, b := range []struct {
		flag string
		spec *sweep.Spec
	}{
		{"-smoke", sweep.Smoke()},
		{"-metro-smoke", sweep.MetroSmoke()},
		{"-nation-smoke", sweep.NationSmoke()},
		{"-traj-smoke", sweep.TrajSmoke()},
		{"-scorecard", sweep.ScorecardSpec()},
	} {
		jobs, err := b.spec.Jobs()
		if err != nil {
			fatal(err)
		}
		faulted := 0
		for _, j := range jobs {
			if j.FaultAxis != "" {
				faulted++
			}
		}
		fmt.Printf("  %-13s %-13s %4d jobs (%d on fault axes)\n",
			b.flag, b.spec.Name, len(jobs), faulted)
	}
	fmt.Println("flags, not axes: -workers (job pool), -shards (intra-job width); neither changes results")
}

func runSweep(specPath string, smoke, metroSmoke, nationSmoke, trajSmoke, scorecard bool, workers, shards int, out string, obsOn, fluidBG bool) {
	var spec *sweep.Spec
	exclusive := 0
	for _, on := range []bool{smoke, metroSmoke, nationSmoke, trajSmoke, specPath != ""} {
		if on {
			exclusive++
		}
	}
	switch {
	case exclusive > 1:
		fatal(fmt.Errorf("-smoke, -metro-smoke, -nation-smoke, -traj-smoke and -spec are mutually exclusive"))
	case scorecard && (smoke || metroSmoke || nationSmoke || trajSmoke):
		fatal(fmt.Errorf("-scorecard cannot combine with -smoke/-metro-smoke/-nation-smoke/-traj-smoke (it has its own built-in matrix)"))
	case smoke:
		spec = sweep.Smoke()
	case metroSmoke:
		spec = sweep.MetroSmoke()
	case nationSmoke:
		spec = sweep.NationSmoke()
	case trajSmoke:
		spec = sweep.TrajSmoke()
	case scorecard && specPath == "":
		spec = sweep.ScorecardSpec()
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			fatal(err)
		}
		spec = &sweep.Spec{}
		// A typo'd axis key must not silently collapse to its default
		// and run the wrong matrix.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(spec); err != nil {
			fatal(fmt.Errorf("%s: %w", specPath, err))
		}
	default:
		fatal(fmt.Errorf("need -spec, -smoke, -metro-smoke, -nation-smoke, -diff or -list (see -h)"))
	}
	spec.Shards = shards
	if fluidBG {
		spec.Fluid = true
	}
	if obsOn {
		// Fresh registry state so the snapshot covers exactly this sweep.
		obs.Reset()
		obs.Enable()
	}

	start := time.Now()
	res, err := sweep.RunProgress(spec, workers, progressLine(start))
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep %q: %d jobs in %v\n",
		spec.Name, len(res.Rows), time.Since(start).Round(time.Millisecond))

	if obsOn {
		if err := writeSnapshot(out, sweep.SpecHash(*spec)); err != nil {
			fatal(err)
		}
	}
	write := func(w io.Writer) error { return sweep.WriteResult(w, res) }
	if scorecard {
		card, err := sweep.BuildScorecard(res)
		if err != nil {
			fatal(err)
		}
		sweep.FprintScorecard(os.Stderr, card)
		write = func(w io.Writer) error { return sweep.WriteScorecard(w, card) }
	}
	if out == "-" {
		if err := write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	writeAtomic(out, write)
}

// writeAtomic writes via temp file + rename so an interrupted run cannot
// leave a truncated baseline behind for CI to diff against. fatal()
// exits without running defers, so error paths clean the temp file up
// explicitly.
func writeAtomic(out string, write func(io.Writer) error) {
	tmp, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp*")
	if err != nil {
		fatal(err)
	}
	fail := func(err error) {
		tmp.Close()
		os.Remove(tmp.Name())
		fatal(err)
	}
	if err := write(tmp); err != nil {
		fail(err)
	}
	if err := tmp.Close(); err != nil {
		fail(err)
	}
	if err := os.Rename(tmp.Name(), out); err != nil {
		fail(err)
	}
}

// progressLine returns the RunProgress callback that rewrites one live
// "done/total, elapsed" line on stderr, or nil when stderr is not a
// terminal (CI logs must not fill with carriage returns). The final
// summary line printed after the sweep overwrites it.
func progressLine(start time.Time) func(done, total int) {
	st, err := os.Stderr.Stat()
	if err != nil || st.Mode()&os.ModeCharDevice == 0 {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%d/%d jobs, %v elapsed",
			done, total, time.Since(start).Round(time.Second))
		if done == total {
			fmt.Fprintf(os.Stderr, "\r\033[K")
		}
	}
}

// writeSnapshot dumps the metrics registry: to stderr when the result
// goes to stdout, else to <out>.obs.json beside the result file. The
// snapshot header carries the sweep spec's hash so -obs-diff can reject
// a stale snapshot from a different matrix.
func writeSnapshot(out, specHash string) error {
	if out == "-" {
		return obs.WriteSnapshotSpec(os.Stderr, specHash)
	}
	f, err := os.Create(out + ".obs.json")
	if err != nil {
		return err
	}
	if err := obs.WriteSnapshotSpec(f, specHash); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runObsDiff compares two -obs snapshots metric by metric. Exit 1 on any
// differing metric value: the snapshot totals of one spec are exactly
// reproducible, so any drift is a behavior change. Mismatched spec
// hashes are a usage error (exit 2): regenerate the stale snapshot.
func runObsDiff(args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("-obs-diff needs exactly two .obs.json files, got %d", len(args)))
	}
	base, err := obs.ReadSnapshot(args[0])
	if err != nil {
		fatal(err)
	}
	cur, err := obs.ReadSnapshot(args[1])
	if err != nil {
		fatal(err)
	}
	deltas, err := obs.DiffSnapshots(base, cur)
	if err != nil {
		fatal(err)
	}
	changed := 0
	for _, d := range deltas {
		if d.Base != d.Cur {
			changed++
			fmt.Printf("%-40s base=%12.0f cur=%12.0f\n", d.Name, d.Base, d.Cur)
		}
	}
	if changed > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d metric(s) differ between snapshots\n", changed)
		os.Exit(1)
	}
	fmt.Printf("%d metrics identical\n", len(deltas))
}

// runScorecardDiff gates a fresh scorecard against the committed
// baseline. The budget is in percentage points of mean degradation for
// robustness_pct (the metric is already a percentage, so a relative
// budget would blow up near zero) and in percent for clean throughput.
func runScorecardDiff(args []string, maxRegress float64) {
	if len(args) != 2 {
		fatal(fmt.Errorf("-scorecard-diff needs exactly two scorecard files, got %d", len(args)))
	}
	base, err := sweep.ReadScorecard(args[0])
	if err != nil {
		fatal(err)
	}
	cur, err := sweep.ReadScorecard(args[1])
	if err != nil {
		fatal(err)
	}
	deltas, err := sweep.DiffScorecard(base, cur)
	if err != nil {
		fatal(err)
	}
	sweep.FprintDeltas(os.Stdout, deltas)
	if worst := sweep.WorstRegression(deltas); worst > maxRegress {
		fmt.Fprintf(os.Stderr, "FAIL: worst scorecard regression %.2f exceeds the %.2f budget\n",
			worst, maxRegress)
		os.Exit(1)
	}
}

func runDiff(args []string, maxRegress float64) {
	if len(args) != 2 {
		fatal(fmt.Errorf("-diff needs exactly two result files, got %d", len(args)))
	}
	base, err := sweep.ReadResult(args[0])
	if err != nil {
		fatal(err)
	}
	cur, err := sweep.ReadResult(args[1])
	if err != nil {
		fatal(err)
	}
	deltas, err := sweep.Diff(base, cur)
	if err != nil {
		fatal(err)
	}
	sweep.FprintDeltas(os.Stdout, deltas)
	if worst := sweep.WorstRegression(deltas); worst > maxRegress {
		fmt.Fprintf(os.Stderr, "FAIL: worst regression %.2f%% exceeds the %.2f%% budget\n",
			worst, maxRegress)
		os.Exit(1)
	}
}

// runBenchDiff gates `go test -bench -benchmem` output: the
// deterministic B/op and allocs/op columns against budget; ns/op is
// printed only.
func runBenchDiff(args []string, budget float64, allowMissing bool) {
	if len(args) != 2 {
		fatal(fmt.Errorf("-benchdiff needs exactly two bench output files, got %d", len(args)))
	}
	parse := func(path string) map[string]sweep.Bench {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		b, err := sweep.ParseBench(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return b
	}
	base, cur := parse(args[0]), parse(args[1])
	deltas, err := sweep.DiffBench(base, cur, allowMissing)
	if err != nil {
		fatal(err)
	}
	sweep.FprintDeltas(os.Stdout, deltas)
	if bad := sweep.ExceededBench(deltas, budget); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d benchmark metric(s) exceed the %.2f%% B/op+allocs/op budget:\n",
			len(bad), budget)
		for _, d := range bad {
			fmt.Fprintf(os.Stderr, "  %s %s: %.2f -> %.2f (+%.2f%%)\n",
				d.Group, d.Metric, d.Base, d.Cur, d.RegressPct)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbesweep:", err)
	os.Exit(2)
}
