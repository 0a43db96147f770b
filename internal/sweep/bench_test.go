package sweep

import (
	"os"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: pbecc/internal/sim
BenchmarkEngineSteady-8   	     100	  11000000 ns/op	  524288 B/op	    1024 allocs/op
BenchmarkClusterMetro-8   	      10	 101000000 ns/op	 1048576 B/op	    4096 allocs/op
PASS
ok  	pbecc/internal/sim	2.345s
`

func TestParseBench(t *testing.T) {
	b, err := ParseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(b))
	}
	// GOMAXPROCS suffix must be stripped so -8 and -16 runs compare.
	es, ok := b["BenchmarkEngineSteady"]
	if !ok {
		t.Fatalf("missing BenchmarkEngineSteady (suffix not stripped?): %v", b)
	}
	if es.BytesPerOp != 524288 || es.AllocsPerOp != 1024 {
		t.Fatalf("EngineSteady = %+v", es)
	}
	// The committed micro baseline must parse under the -benchmem rule.
	f, err := os.Open("../../BENCH_micro_baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ParseBench(f); err != nil {
		t.Fatalf("BENCH_micro_baseline.txt: %v", err)
	}
}

func TestParseBenchWithoutIterations(t *testing.T) {
	b, err := ParseBench(strings.NewReader("BenchmarkMetro1Shard  48.56 measured-Mbit/s  2048 B/op  16 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m := b["BenchmarkMetro1Shard"]; m.BytesPerOp != 2048 || m.AllocsPerOp != 16 {
		t.Fatalf("Metro1Shard = %+v", m)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := map[string]string{
		"no benchmarks": "goos: linux\nPASS\n",
		"duplicate name": "BenchmarkX-8 10 5 ns/op 8 B/op 1 allocs/op\n" +
			"BenchmarkX-16 10 6 ns/op 8 B/op 1 allocs/op\n",
		// A line without -benchmem columns would pass the gate unmeasured.
		"no -benchmem columns": "BenchmarkX-8 10 200000 ns/op\n",
		"missing allocs/op":    "BenchmarkX-8 10 99 B/op\n",
	}
	for name, in := range cases {
		if _, err := ParseBench(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseBench accepted bad input", name)
		}
	}
}

func TestDiffBenchAndGate(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", BytesPerOp: 1000, AllocsPerOp: 10},
	}
	cur := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", BytesPerOp: 1000, AllocsPerOp: 12},
	}
	deltas, err := DiffBench(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 (B, allocs): %+v", len(deltas), deltas)
	}

	// Allocations gate at 10%: +20% fails, the unchanged B/op does not.
	bad := ExceededBench(deltas, 10)
	if len(bad) != 1 || bad[0].Metric != "allocs/op" {
		t.Fatalf("violations = %+v, want only allocs/op", bad)
	}
}

func TestDiffBenchMissing(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", BytesPerOp: 64, AllocsPerOp: 1},
	}
	cur := map[string]Bench{
		"BenchmarkA": {Name: "BenchmarkA", BytesPerOp: 64, AllocsPerOp: 1},
		"BenchmarkB": {Name: "BenchmarkB", BytesPerOp: 32, AllocsPerOp: 1},
	}
	if _, err := DiffBench(base, cur); err == nil {
		t.Fatal("benchmark missing from the baseline accepted")
	}
}
