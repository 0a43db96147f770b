// Command benchmark is the repository's performance instrument: four
// host-time workloads run through the entry points users call
// (sweep.Run, harness.BuildScenario + harness.Run), ten end-to-end metrics
// per workload, and one traced pass that attributes cost to the internal/
// layers through obs counters and small per-layer drivers. README.md has
// the metric tables and how to read the output.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh -seed 1                 # all workloads, traced pass, out/trace.json
//	bash benchmark/run.sh -selfcheck              # two sets, agreement within the bounds
//	bash benchmark/run.sh --workload metro_serial --seed 3 --seconds 15 --trace 0
//
// The last form is what BENCHMARK.json's driver uses: one workload, one
// JSON object on the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process as one workload's measuring child. The test
// binary checks it too, so `go test` can re-execute itself as a child.
const childEnv = "PBECC_BENCH_CHILD"

type config struct {
	seed    int64
	procs   int     // P: GOMAXPROCS and every worker/shard width
	quick   bool    // test scale: seconds of work, not minutes
	seconds float64 // timed iterations run at least this long per workload
	trace   bool    // also make the traced pass (per-layer metrics)
	outDir  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	defaultProcs := min(runtime.NumCPU(), 4)
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.IntVar(&cfg.procs, "procs", defaultProcs, "P: GOMAXPROCS, sweep workers and shard width (BENCHMARK.json numbers are at min(nproc, 4))")
	fs.BoolVar(&cfg.quick, "quick", false, "test scale: tiny workloads, 2 iterations, drivers at 1/20 length")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "minimum measured time per workload (at least 7 iterations run regardless; -quick runs 2 and ignores this)")
	fs.StringVar(&cfg.outDir, "out", "", "directory for trace.json (default benchmark/out)")
	name := fs.String("workload", "", "run one workload and print one JSON result as the last line (default: all four)")
	trace := fs.String("trace", "1", "1 = also make the traced pass; with -workload, print per-layer metrics instead of end-to-end")
	selfcheck := fs.Bool("selfcheck", false, "run the whole benchmark twice and require the two sets to agree within the bounds")
	child := fs.Bool("child", false, "internal: measure -workload in this process")
	execNs := fs.Int64("exec-ns", 0, "internal: host time the runner started this child")
	epochNs := fs.Int64("epoch-ns", 0, "internal: span epoch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if cfg.trace, err = strconv.ParseBool(*trace); err != nil {
		fmt.Fprintf(stderr, "benchmark: -trace %q is neither 0 nor 1\n", *trace)
		return 2
	}
	if cfg.outDir == "" {
		cfg.outDir = "out"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			cfg.outDir = "benchmark/out"
		}
	}
	if cfg.procs < 1 {
		fmt.Fprintln(stderr, "benchmark: -procs must be at least 1")
		return 2
	}

	ws := workloads(cfg.quick)
	if *name != "" {
		var one []workload
		for _, w := range ws {
			if w.name == *name {
				one = append(one, w)
			}
		}
		if len(one) == 0 {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ws = one
	}
	if *child {
		if err := runChild(cfg, &ws[0], *execNs, *epochNs, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	runtime.GOMAXPROCS(cfg.procs)
	if *selfcheck {
		return runSelfcheck(cfg, ws, stdout, stderr)
	}
	rep, err := measureAll(cfg, ws, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.print(stdout)
	if cfg.trace {
		path, err := writeTrace(cfg.outDir, rep.Provenance, rep.Spans)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s (%d spans)\n", path, len(rep.Spans))
	}
	if *name != "" {
		// The driver's contract: one JSON object, last line of stdout.
		if err := rep.Workloads[0].printContract(stdout, cfg.trace); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

// report is one complete set of measurements.
type report struct {
	Provenance provenance
	Workloads  []*childResult
	Spans      []span
}

// measureAll runs each workload in a process of its own, one after the
// other, so peak RSS and heap state do not leak between workloads; with
// tracing on it then runs the per-layer drivers in this process.
func measureAll(cfg *config, ws []workload, stderr io.Writer) (*report, error) {
	begin := time.Now()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := newTracer(begin, "")
	rep := &report{Provenance: newProvenance(cfg)}
	for _, w := range ws {
		cmd := exec.Command(exe, "-child", "-workload", w.name,
			"-seed", strconv.FormatInt(cfg.seed, 10), "-procs", strconv.Itoa(cfg.procs),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-quick="+strconv.FormatBool(cfg.quick), "-trace", strconv.FormatBool(cfg.trace),
			"-epoch-ns", strconv.FormatInt(begin.UnixNano(), 10),
			"-exec-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the runner
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		res := &childResult{}
		if err := json.Unmarshal(out, res); err != nil {
			return nil, fmt.Errorf("workload %s: reading the child's result: %w", w.name, err)
		}
		tr.adopt(res.Spans)
		res.Spans = nil
		rep.Workloads = append(rep.Workloads, res)
		rep.Provenance.Iterations[w.name] = res.Iterations
	}
	if cfg.trace {
		// Driver results do not depend on the workload; every workload's
		// per-layer set carries them so each is complete on its own.
		for name, v := range runDrivers(cfg, tr) {
			for _, res := range rep.Workloads {
				res.PerLayer[name] = v
			}
		}
	}
	rep.Spans = tr.spans
	rep.Provenance.TotalWallS = time.Since(begin).Seconds()
	return rep, nil
}

func (rep *report) print(w io.Writer) {
	rep.Provenance.print(w)
	by := map[string]*childResult{}
	for _, r := range rep.Workloads {
		by[r.Workload] = r
		fmt.Fprintf(w, "\nworkload %s: %d timed iterations, %d operations attempted, %d failed, fingerprint %s\n",
			r.Workload, r.Iterations, r.Attempted, r.Failed, r.Fingerprint)
		for _, f := range r.Failures {
			fmt.Fprintf(w, "failure %s: %s\n", r.Workload, f)
		}
		for _, m := range endToEnd {
			printMetric(w, r.Workload, "end_to_end", m.Name, r.EndToEnd[m.Name])
		}
		if r.PerLayer != nil {
			for _, m := range perLayer {
				printMetric(w, r.Workload, "per_layer", m.Name, r.PerLayer[m.Name])
			}
		}
		for _, k := range []string{"fail_share", "sim_s_per_iter", "startup_s", "measured_flow_tput_mbps", "measured_flow_delay_p95_ms"} {
			printMetric(w, r.Workload, "info", k, r.Info[k])
		}
	}
	if a, b := by["metro_serial"], by["metro_sharded"]; a != nil && b != nil {
		fmt.Fprintf(w, "\nshard_speedup %.4f (metro_serial.wall_s / metro_sharded.wall_s at P=%d; informational)\n",
			ratio(a.EndToEnd["wall_s"].Value, b.EndToEnd["wall_s"].Value), rep.Provenance.GOMAXPROCS)
	}
	if len(rep.Spans) > 0 {
		fmt.Fprintln(w, "\nself time by layer (span duration minus the interval its children cover):")
		self := selfTimes(rep.Spans)
		byLayer, order := map[string]int64{}, []string{}
		for _, s := range rep.Spans {
			key := s.Layer
			if s.Workload != "" {
				key = s.Workload + " " + s.Layer
			}
			if _, ok := byLayer[key]; !ok {
				order = append(order, key)
			}
			byLayer[key] += self[s.ID]
		}
		for _, k := range order {
			fmt.Fprintf(w, "self_time %-28s %10.3f ms\n", k, float64(byLayer[k])/1e6)
		}
	}
}

func printMetric(w io.Writer, workload, kind, name string, v value) {
	fmt.Fprintf(w, "metric %-13s %-10s %-34s %s %s", workload, kind, name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	if v.N > 0 {
		fmt.Fprintf(w, "  (median of %d; quartiles %.6g .. %.6g)", v.N, v.Q1, v.Q3)
	}
	fmt.Fprintln(w)
}

// printContract prints the one-line result BENCHMARK.json's driver reads.
func (r *childResult) printContract(w io.Writer, traced bool) error {
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("workload %s: metric %s has no finite value", r.Workload, m.Name)
		}
		out.Metrics[m.Name] = metric{v.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runSelfcheck measures two complete sets with the same code and seed and
// holds them to the benchmark's own bounds: host-clock medians within each
// metric's bound, everything simulated or counted exactly equal.
func runSelfcheck(cfg *config, ws []workload, stdout, stderr io.Writer) int {
	var sets [2]*report
	for i := range sets {
		rep, err := measureAll(cfg, ws, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "==== set %d ====\n", i+1)
		rep.print(stdout)
		sets[i] = rep
	}
	fmt.Fprintf(stdout, "\n==== agreement of the two sets ====\n")
	bad := 0
	for i, a := range sets[0].Workloads {
		b := sets[1].Workloads[i]
		if a.Fingerprint != b.Fingerprint || a.Failed+b.Failed > 0 {
			bad++
			fmt.Fprintf(stdout, "DISAGREE %s fingerprint %s vs %s, failed %d vs %d\n", a.Workload, a.Fingerprint, b.Fingerprint, a.Failed, b.Failed)
		}
		for _, m := range endToEnd {
			va, vb := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			bound := m.Bound
			if simulated[m.Name] {
				bound = 0
			}
			diff := math.Abs(ratio(vb-va, va))
			verdict := "ok"
			if diff > bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "agree %-13s %-18s %14.6g %14.6g  diff %6.2f%%  bound %5.1f%%  %s\n",
				a.Workload, m.Name, va, vb, 100*diff, 100*bound, verdict)
		}
		for _, m := range perLayer {
			if va, vb := a.PerLayer[m.Name], b.PerLayer[m.Name]; va.Exact && va.Value != vb.Value {
				bad++
				fmt.Fprintf(stdout, "DISAGREE %s %s: exact count %v vs %v\n", a.Workload, m.Name, va.Value, vb.Value)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d disagreements\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: the two sets agree (host-clock medians within bounds; simulated values, exact counts and fingerprints identical)")
	return 0
}

// provenance is printed beside the metrics and never inside a compared value.
type provenance struct {
	GitRev     string         `json:"git_rev"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Seed       int64          `json:"seed"`
	Quick      bool           `json:"quick,omitempty"`
	Iterations map[string]int `json:"iterations"`
	TotalWallS float64        `json:"total_wall_s"`
}

func newProvenance(cfg *config) provenance {
	p := provenance{GitRev: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: cfg.procs,
		NProc: runtime.NumCPU(), CPUModel: "unknown", Seed: cfg.seed, Quick: cfg.quick, Iterations: map[string]int{}}
	if _, err := os.Stat(".git"); err == nil { // a bare checkout of the files has no revision to report
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			p.GitRev = string(bytes.TrimSpace(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "provenance git_rev=%s go=%s gomaxprocs=%d nproc=%d cpu=%q seed=%d quick=%v iterations=%v total_wall_s=%.1f\n",
		p.GitRev, p.GoVersion, p.GOMAXPROCS, p.NProc, p.CPUModel, p.Seed, p.Quick, p.Iterations, p.TotalWallS)
}
