package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// TestMain lets the test binary stand in for the benchmark binary: the
// runner re-executes os.Executable() once per workload, which under
// `go test` is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads(false) {
		f.Workloads = append(f.Workloads, workloadDef{w.name, w.why})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	return f
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program prints
// from, and both to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantBenchmarkFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the benchmark's tables; run `go test -run TestBenchmarkJSON -update`\n got %+v\nwant %+v", got, want)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(got.PerLayer); n != 68 {
		t.Errorf("%d per-layer metrics, want the 68 the issue lists (limit 128)", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestQuickRun runs all four workloads at test scale and checks the printed
// metrics against the declared ones and the span tree for shape.
func TestQuickRun(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "1", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"provenance git_rev=", "go=go", "gomaxprocs=", "nproc=", "cpu=", "seed=1", "iterations=", "total_wall_s=", "shard_speedup "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}

	printed := map[string]int{} // "workload kind name" -> times printed
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "metric" || f[2] == "info" {
			continue
		}
		printed[f[1]+" "+f[2]+" "+f[3]]++
		if v, err := strconv.ParseFloat(f[4], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: value %q is not a finite number", line, f[4])
		}
		if f[5] == "" {
			t.Errorf("%s: no unit", line)
		}
	}
	declared := 0
	for _, w := range workloads(true) {
		for kind, defs := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
			for _, m := range defs {
				declared++
				if n := printed[w.name+" "+kind+" "+m.Name]; n != 1 {
					t.Errorf("%s %s %s printed %d times, want once", w.name, kind, m.Name, n)
				}
			}
		}
		if !strings.Contains(out, "workload "+w.name+": 2 timed iterations") || !strings.Contains(out, "metric "+w.name+" ") {
			t.Errorf("no result block for %s", w.name)
		}
	}
	if len(printed) != declared {
		t.Errorf("%d distinct metrics printed, %d declared", len(printed), declared)
	}
	if strings.Contains(out, "\nfailure ") {
		t.Errorf("operations failed:\n%s", out)
	}
	// The sharded and serial metro runs must agree on every simulated output.
	fp := regexp.MustCompile(`workload (metro_\w+):.* fingerprint (\w+)`).FindAllStringSubmatch(out, -1)
	if len(fp) != 2 || fp[0][2] != fp[1][2] {
		t.Errorf("metro fingerprints: %v", fp)
	}

	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	roots := map[string]int{}
	for _, s := range tf.Spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Errorf("span id %d is zero or repeated", s.ID)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Workload]++
			if want := "workload/" + s.Workload; s.Workload != "" && s.Name != want {
				t.Errorf("root span of %s is named %q, want %q", s.Workload, s.Name, want)
			}
		}
	}
	for _, w := range workloads(true) {
		if roots[w.name] != 1 {
			t.Errorf("workload %s has %d root spans, want 1", w.name, roots[w.name])
		}
	}
	if roots[""] != 1 {
		t.Errorf("%d root spans outside any workload, want 1 (the drivers)", roots[""])
	}
	drivers := 0
	for _, s := range tf.Spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if strings.HasPrefix(s.Name, "driver/") {
			drivers++
			if s.Ops <= 0 {
				t.Errorf("driver span %s covered %d operations", s.Name, s.Ops)
			}
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Workload != p.Workload {
			t.Errorf("span %d %s is not inside its parent %s", s.ID, s.Name, p.Name)
		}
	}
	if drivers < 30 {
		t.Errorf("%d driver spans, want one per driver case", drivers)
	}
	for id, ns := range selfTimes(tf.Spans) {
		if ns < 0 {
			t.Errorf("span %d %s has negative self time %d ns", id, byID[id].Name, ns)
		}
	}
}

// TestContractLine checks the one-workload form the driver of
// BENCHMARK.json uses: the last line is one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
func TestContractLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "--workload", "metro_sharded", "--seed", "7", "--seconds", "0", "--trace", c.trace, "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v\n%s", c.trace, err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: correct/attempted/failed = %v/%v/%v", c.trace, got.Correct, got.Attempted, got.Failed)
		}
		if len(got.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(got.Metrics), len(c.defs))
		}
		for _, m := range c.defs {
			v, ok := got.Metrics[m.Name]
			if !ok || v.Value == nil || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want a value in %s", c.trace, m.Name, v, m.Unit)
			}
		}
	}
}
