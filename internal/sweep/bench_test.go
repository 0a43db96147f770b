package sweep

import (
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: pbecc/internal/sim
BenchmarkEngineSteady-8   	     100	  11000000 ns/op	  524288 B/op	    1024 allocs/op
BenchmarkClusterMetro-8   	      10	 101000000 ns/op	 1048576 B/op	    4096 allocs/op
BenchmarkNoMem-8          	    5000	    200000 ns/op
PASS
ok  	pbecc/internal/sim	2.345s
`

func TestParseBench(t *testing.T) {
	b, err := ParseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(b))
	}
	// GOMAXPROCS suffix must be stripped so -8 and -16 runs compare.
	es, ok := b["BenchmarkEngineSteady"]
	if !ok {
		t.Fatalf("missing BenchmarkEngineSteady (suffix not stripped?): %v", b)
	}
	if es.NsPerOp != 11000000 || es.BytesPerOp != 524288 || es.AllocsPerOp != 1024 {
		t.Fatalf("EngineSteady = %+v", es)
	}
	// A line without -benchmem columns keeps ns/op and flags the rest absent.
	nm := b["BenchmarkNoMem"]
	if nm.NsPerOp != 200000 || nm.BytesPerOp >= 0 || nm.AllocsPerOp >= 0 {
		t.Fatalf("NoMem = %+v, want ns only", nm)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := map[string]string{
		"no benchmarks": "goos: linux\nPASS\n",
		"duplicate name": "BenchmarkX-8 10 5 ns/op\n" +
			"BenchmarkX-16 10 6 ns/op\n",
		"missing ns/op": "BenchmarkX-8 10 99 B/op\n",
	}
	for name, in := range cases {
		if _, err := ParseBench(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseBench accepted bad input", name)
		}
	}
}

func TestDiffBenchAndGate(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	}
	cur := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 150, BytesPerOp: 1000, AllocsPerOp: 12},
	}
	deltas, err := DiffBench(base, cur, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3 (ns, B, allocs): %+v", len(deltas), deltas)
	}

	// Allocations gate at 10%; ns/op +50% is printed, never gated.
	bad := ExceededBench(deltas, 10)
	if len(bad) != 1 || bad[0].Metric != "allocs/op" {
		t.Fatalf("violations = %+v, want only allocs/op", bad)
	}
}

func TestDiffBenchMissing(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: -1, AllocsPerOp: -1},
	}
	cur := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: -1, AllocsPerOp: -1},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 50, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if _, err := DiffBench(base, cur, false); err == nil {
		t.Fatal("one-sided benchmark accepted without -allow-missing")
	}
	deltas, err := DiffBench(base, cur, true)
	if err != nil {
		t.Fatal(err)
	}
	// Only the common benchmark contributes; no -benchmem columns -> ns only.
	if len(deltas) != 1 || deltas[0].Metric != "ns/op" {
		t.Fatalf("allow-missing deltas = %+v, want one ns/op delta", deltas)
	}
}
