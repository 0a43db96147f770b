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

// Bench is one benchmark's allocation cost per operation, parsed from
// `go test -bench -benchmem` output. BytesPerOp and AllocsPerOp are
// deterministic properties of the code, so they can be gated against a
// committed baseline across machines; ns/op measures the machine as much
// as the code and is not read (benchmark/ is the timing authority).
type Bench struct {
	Name        string  `json:"name"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchLine matches "BenchmarkName-8   123456   95.3 ns/op [...]". The
// -N GOMAXPROCS suffix is stripped from the name so results stay
// comparable across differently-sized machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d.*)$`)

// ParseBench reads `go test -bench -benchmem` output and returns the
// benchmarks it found, keyed by name (without the GOMAXPROCS suffix).
// The iteration count may be left out, as in the committed baseline,
// which keeps only the B/op and allocs/op columns.
// Non-benchmark lines (PASS, ok, goos, log noise) are ignored. A
// benchmark line without the B/op and allocs/op columns is an error: it
// would otherwise pass the gate unmeasured. So is a duplicate name - two
// packages declaring the same benchmark, or -count > 1 - because
// silently keeping one run would make the diff depend on output order.
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
		if len(fields)%2 == 1 {
			fields = fields[1:] // the iteration count; the rest are value-unit pairs
		}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", b.Name, fields[i])
			}
			switch fields[i+1] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if b.BytesPerOp < 0 || b.AllocsPerOp < 0 {
			return nil, fmt.Errorf("benchmark %s has no B/op and allocs/op columns (run with -benchmem)", b.Name)
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

// Delta is one benchmark column compared between a baseline and a
// current run. RegressPct is signed so that positive means worse: the
// percentage the (lower-is-better) cost grew.
type Delta struct {
	Group      string  `json:"group"` // benchmark name
	Metric     string  `json:"metric"`
	Base       float64 `json:"base"`
	Cur        float64 `json:"cur"`
	RegressPct float64 `json:"regress_pct"`
}

// DiffBench compares two parsed benchmark sets and returns a B/op and an
// allocs/op Delta per benchmark, in name order. A benchmark on only one
// side is an error: it would otherwise leave the gate unmeasured.
func DiffBench(base, cur map[string]Bench) ([]Delta, error) {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := base[name]; !ok {
			return nil, fmt.Errorf("benchmark %s missing from baseline (regenerate it)", name)
		}
		names = append(names, name)
	}
	for name := range base {
		if _, ok := cur[name]; !ok {
			return nil, fmt.Errorf("benchmark %s missing from current run", name)
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
		add("B/op", b.BytesPerOp, c.BytesPerOp)
		add("allocs/op", b.AllocsPerOp, c.AllocsPerOp)
	}
	return deltas, nil
}

// ExceededBench filters bench deltas down to the ones that regress more
// than budget percent.
func ExceededBench(deltas []Delta, budget float64) []Delta {
	var bad []Delta
	for _, d := range deltas {
		if d.RegressPct > budget {
			bad = append(bad, d)
		}
	}
	return bad
}

// regressPct returns how much worse cur is than base, in percent of base.
// A zero or vanishing baseline cannot be expressed as a percentage: the
// metric counts as regressed only if the current value is also worse in
// absolute terms by any amount (reported as 100%).
func regressPct(base, cur float64, higherBetter bool) float64 {
	const eps = 1e-9
	if base < eps {
		if !higherBetter && cur > eps {
			return 100
		}
		return 0
	}
	if higherBetter {
		return (base - cur) / base * 100
	}
	return (cur - base) / base * 100
}

// FprintDeltas renders deltas as an aligned table for the CI log.
func FprintDeltas(w io.Writer, deltas []Delta) {
	for _, d := range deltas {
		mark := ""
		if d.RegressPct > 0 {
			mark = " worse"
		} else if d.RegressPct < 0 {
			mark = " better"
		}
		fmt.Fprintf(w, "%-40s %-20s base=%10.2f cur=%10.2f %+7.2f%%%s\n",
			d.Group, d.Metric, d.Base, d.Cur, d.RegressPct, mark)
	}
}
