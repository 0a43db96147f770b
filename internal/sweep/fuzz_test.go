package sweep

import (
	"bytes"
	"io"
	"testing"
)

// FuzzParseBench holds the micro gate's parser (pbesweep -benchdiff) to
// its contract for any text: it never panics, and a benchmark set it
// accepts diffs against itself with every column unchanged, so no
// baseline can pass the 10 % gate unmeasured or fail it against itself.
// The seed corpus is testdata/fuzz/FuzzParseBench.
func FuzzParseBench(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		benches, err := ParseBench(bytes.NewReader(data))
		if err != nil {
			return
		}
		deltas, err := DiffBench(benches, benches)
		if err != nil {
			t.Fatalf("DiffBench(x, x) of an accepted set failed: %v", err)
		}
		if len(deltas) != 2*len(benches) {
			t.Fatalf("DiffBench(x, x) returned %d deltas for %d benchmarks", len(deltas), len(benches))
		}
		for _, d := range deltas {
			if d.RegressPct != 0 {
				t.Fatalf("benchmark %s %s regresses %v %% against itself (value %v)", d.Group, d.Metric, d.RegressPct, d.Base)
			}
		}
		FprintDeltas(io.Discard, deltas)
	})
}

// FuzzDiff holds pbesweep -diff to its contract for any pair of inputs:
// it never panics; a document it accepts shows no change against itself;
// and comparing the pair the other way round reports the same paths with
// the two sides swapped. The seed corpus is testdata/fuzz/FuzzDiff.
func FuzzDiff(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, cur []byte) {
		changes, err := Diff(base, cur)
		FprintChanges(io.Discard, changes)
		if self, selfErr := Diff(base, base); selfErr == nil && len(self) != 0 {
			t.Fatalf("a document differs from itself in %d leaves, first %+v", len(self), self[0])
		}
		back, backErr := Diff(cur, base)
		if (err == nil) != (backErr == nil) {
			t.Fatalf("Diff(a, b) error %v but Diff(b, a) error %v", err, backErr)
		}
		if len(back) != len(changes) {
			t.Fatalf("Diff(a, b) reports %d changes, Diff(b, a) %d", len(changes), len(back))
		}
		for i, ch := range changes {
			if back[i] != (Change{Path: ch.Path, Base: ch.Cur, Cur: ch.Base}) {
				t.Fatalf("change %d is %+v one way and %+v the other", i, ch, back[i])
			}
		}
	})
}
