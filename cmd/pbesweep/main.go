// Command pbesweep runs a declarative scenario-matrix sweep across a
// bounded worker pool and emits machine-readable JSON results, or diffs
// two committed artifacts.
//
// Usage:
//
//	pbesweep -spec sweep.json -workers 8 -out results.json
//	pbesweep -spec smoke -out BENCH_PR.json     # built-in CI smoke matrix
//	pbesweep -spec metro-smoke -shards 4 -out m.json  # city-scale sharded slice
//	pbesweep -spec nation-smoke -shards 8 -out n.json # 64k-cell fluid-tier slice
//	pbesweep -spec traj -out traj.json          # trajectory slice (convergence/tracking gates)
//	pbesweep -scorecard -out scorecard.json     # robustness ranking under faults
//	pbesweep -diff BENCH_baseline.json BENCH_PR.json  # any result, scorecard or .obs.json
//	pbesweep -benchdiff base.txt cur.txt        # go test -benchmem gate
//	pbesweep -list                              # families, schemes, axes, built-in specs
//
// -diff prints every JSON leaf that differs and exits 1 if any does, 0
// if none does, and 2 if the two files come from different specs.
// -benchdiff exits 1 when B/op or allocs/op of any benchmark grew by more
// than benchBudgetPct, and 2 when a benchmark is on one side only.
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
	specArg := flag.String("spec", "", "built-in spec name (see -list) or sweep spec JSON file")
	fluidBG := flag.Bool("fluid", false, "convert background churn to the fluid tier (sets the spec's \"fluid\" field; the nation family is always fluid)")
	scorecard := flag.Bool("scorecard", false, "write the ranked robustness scorecard (schemes x fault axes); runs the built-in scorecard spec unless -spec names one with fault_axes")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "parallel shard width inside sharded jobs (0 = serial); never changes results")
	out := flag.String("out", "-", "result file ('-' = stdout)")
	obsOn := flag.Bool("obs", false, "enable the metrics registry and write a snapshot to <out>.obs.json (stderr when -out is '-'); never changes the result")
	diff := flag.Bool("diff", false, "print every leaf that differs between two result, scorecard or -obs snapshot files: pbesweep -diff base.json cur.json (exit 1 on any difference, 2 across specs)")
	benchDiff := flag.Bool("benchdiff", false, "diff two 'go test -bench -benchmem' output files: pbesweep -benchdiff base.txt cur.txt (exit 1 when B/op or allocs/op of any benchmark grew more than 10%)")
	list := flag.Bool("list", false, "list scenario families, schemes and spec axes")
	prof := obs.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case *list:
		listAxes()
	case *diff:
		runDiff(flag.Args())
	case *benchDiff:
		runBenchDiff(flag.Args())
	default:
		stopProf, err := prof.Start()
		if err != nil {
			fatal(err)
		}
		runSweep(*specArg, *scorecard, *workers, *shards, *out, *obsOn, *fluidBG)
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}
}

func listAxes() {
	fmt.Println("scenario families (spec \"experiments\"):")
	for _, f := range harness.Families() {
		fmt.Printf("  %-12s %s\n", f.ID, f.Title)
	}
	fmt.Printf("schemes: %v\n", harness.Schemes)
	fmt.Printf("rats (every family): %v\n", []string{harness.RATLTE, harness.RATNR})
	fmt.Printf("other axes: seeds, rats, locations (grid spots 0-%d; steady on lte only), cell_counts, noise_levels, busy, duration_ms, fluid\n",
		len(harness.LocationGrid())-1)
	fmt.Printf("fault axes (spec \"fault_axes\" + \"fault_levels\", see -scorecard): %v\n", faults.Axes())
	fmt.Println("built-in specs (-spec <name>; job counts include the fault-axis expansion):")
	for _, spec := range sweep.Builtins() {
		jobs, err := spec.Jobs()
		if err != nil {
			fatal(err)
		}
		faulted := 0
		for _, j := range jobs {
			if j.FaultAxis != "" {
				faulted++
			}
		}
		fmt.Printf("  %-13s %4d jobs (%d on fault axes)\n", spec.Name, len(jobs), faulted)
	}
	fmt.Println("flags, not axes: -workers (job pool), -shards (intra-job width); neither changes results")
}

func runSweep(specArg string, scorecard bool, workers, shards int, out string, obsOn, fluidBG bool) {
	if workers < 0 {
		fatal(fmt.Errorf("-workers %d: must be 0 (GOMAXPROCS) or positive", workers))
	}
	if shards < 0 {
		fatal(fmt.Errorf("-shards %d: must be 0 (serial) or positive", shards))
	}
	var spec *sweep.Spec
	switch {
	case specArg != "":
		spec = loadSpec(specArg)
	case scorecard:
		spec = sweep.ScorecardSpec()
	default:
		fatal(fmt.Errorf("need -spec <name|file>, -scorecard, -diff or -list (see -h)"))
	}
	if scorecard && len(spec.FaultAxes) == 0 {
		fatal(fmt.Errorf("-scorecard needs a spec with fault_axes; %q has none", spec.Name))
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

// loadSpec resolves -spec: a built-in spec name, which wins over a file
// of the same name, or a JSON spec file.
func loadSpec(arg string) *sweep.Spec {
	for _, spec := range sweep.Builtins() {
		if spec.Name == arg {
			return spec
		}
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		fatal(fmt.Errorf("%w (and %q is no built-in spec; see -list)", err, arg))
	}
	spec := &sweep.Spec{}
	// A typo'd axis key must not silently collapse to its default
	// and run the wrong matrix.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		fatal(fmt.Errorf("%s: %w", arg, err))
	}
	return spec
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
// snapshot header carries the sweep spec's hash so -diff can reject
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

// runDiff prints every leaf that differs between two committed JSON
// artifacts and exits 1 if there is any.
func runDiff(args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("-diff needs exactly two JSON files, got %d", len(args)))
	}
	var docs [2][]byte
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		docs[i] = data
	}
	changes, err := sweep.Diff(docs[0], docs[1])
	if err != nil {
		fatal(fmt.Errorf("%s vs %s: %w", args[0], args[1], err))
	}
	sweep.FprintChanges(os.Stdout, changes)
	if len(changes) > 0 {
		os.Exit(1)
	}
}

// benchBudgetPct is the -benchdiff gate: the most B/op or allocs/op may
// grow. Both are deterministic per op, so the budget holds on any runner.
const benchBudgetPct = 10

// runBenchDiff gates `go test -bench -benchmem` output: the
// deterministic B/op and allocs/op columns against benchBudgetPct.
func runBenchDiff(args []string) {
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
	deltas, err := sweep.DiffBench(base, cur)
	if err != nil {
		fatal(err)
	}
	sweep.FprintDeltas(os.Stdout, deltas)
	if bad := sweep.ExceededBench(deltas, benchBudgetPct); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d benchmark metric(s) exceed the %d%% B/op+allocs/op budget:\n",
			len(bad), benchBudgetPct)
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
