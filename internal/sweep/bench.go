package sweep

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pbecc/internal/stats"
)

// Bench is one benchmark's measured cost per operation, parsed from
// `go test -bench -benchmem` output. NsPerOp is machine-dependent;
// BytesPerOp and AllocsPerOp are deterministic properties of the code, so
// they can be gated against a committed baseline across machines. A
// negative BytesPerOp/AllocsPerOp means the line carried no -benchmem
// columns.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchLine matches "BenchmarkName-8   123456   95.3 ns/op [...]". The
// -N GOMAXPROCS suffix is stripped from the name so results stay
// comparable across differently-sized machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// ParseBench reads `go test -bench` output and returns the benchmarks it
// found, keyed by name (without the GOMAXPROCS suffix). Non-benchmark
// lines (PASS, ok, goos, log noise) are ignored. A duplicate name - two
// packages declaring the same benchmark, or -count > 1 - is an error,
// because silently keeping one run would make the diff depend on output
// order.
func ParseBench(r io.Reader) (map[string]Bench, error) {
	out := map[string]Bench{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		b := Bench{Name: m[1], BytesPerOp: -1, AllocsPerOp: -1}
		if _, dup := out[b.Name]; dup {
			return nil, fmt.Errorf("duplicate benchmark %s (ran with -count > 1?)", b.Name)
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", b.Name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if b.NsPerOp == 0 {
			return nil, fmt.Errorf("benchmark %s has no ns/op column", b.Name)
		}
		out[b.Name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return out, nil
}

// DiffBench compares two parsed benchmark sets and returns one Delta per
// metric per benchmark present in both, in name order (all three metrics
// are lower-better). Benchmarks on only one side are an error unless
// allowMissing is set, which tolerates them - the mode used when
// comparing against an older base ref that predates a new benchmark.
func DiffBench(base, cur map[string]Bench, allowMissing bool) ([]Delta, error) {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := base[name]; !ok {
			if allowMissing {
				continue
			}
			return nil, fmt.Errorf("benchmark %s missing from baseline (regenerate it)", name)
		}
		names = append(names, name)
	}
	if !allowMissing {
		for name := range base {
			if _, ok := cur[name]; !ok {
				return nil, fmt.Errorf("benchmark %s missing from current run", name)
			}
		}
	}
	sort.Strings(names)
	var deltas []Delta
	for _, name := range names {
		b, c := base[name], cur[name]
		add := func(metric string, bv, cv float64) {
			d := Delta{Group: name, Metric: metric, Base: bv, Cur: cv}
			d.RegressPct = stats.Round2(regressPct(bv, cv, false))
			deltas = append(deltas, d)
		}
		add("ns/op", b.NsPerOp, c.NsPerOp)
		if b.BytesPerOp >= 0 && c.BytesPerOp >= 0 {
			add("B/op", b.BytesPerOp, c.BytesPerOp)
		}
		if b.AllocsPerOp >= 0 && c.AllocsPerOp >= 0 {
			add("allocs/op", b.AllocsPerOp, c.AllocsPerOp)
		}
	}
	return deltas, nil
}

// ExceededBench filters bench deltas down to gate violations: the
// deterministic B/op and allocs/op columns regressing more than budget
// percent. ns/op is never gated; it measures the machine as much as the
// code.
func ExceededBench(deltas []Delta, budget float64) []Delta {
	var bad []Delta
	for _, d := range deltas {
		if d.Metric != "ns/op" && d.RegressPct > budget {
			bad = append(bad, d)
		}
	}
	return bad
}
