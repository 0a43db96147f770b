package obs_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"pbecc/internal/obs"
	"pbecc/internal/sweep"
)

// An -obs snapshot is one of the artifacts pbesweep -diff compares; these
// tests hold the snapshot's encoding to that diff.

func diffSnapshots(t *testing.T, base, cur obs.Snapshot) ([]sweep.Change, error) {
	t.Helper()
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	c, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Diff(b, c)
}

func TestDiffSnapshotsRejectsSpecMismatch(t *testing.T) {
	base := obs.Snapshot{SpecHash: "aaa", Counters: map[string]uint64{"x": 1}}
	cur := obs.Snapshot{SpecHash: "bbb", Counters: map[string]uint64{"x": 1}}
	if _, err := diffSnapshots(t, base, cur); err == nil {
		t.Fatal("differing spec hashes not rejected")
	}
	// A legacy snapshot without a header must not silently compare
	// against a stamped one either.
	if _, err := diffSnapshots(t, obs.Snapshot{}, cur); err == nil {
		t.Fatal("missing spec hash on one side not rejected")
	}
	cur.SpecHash = "aaa"
	cur.Counters["sim.y"] = 3
	changes, err := diffSnapshots(t, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	want := []sweep.Change{{Path: `.counters["sim.y"]`, Base: "", Cur: "3"}}
	if !reflect.DeepEqual(changes, want) {
		t.Fatalf("changes = %+v, want the one-sided metric %+v", changes, want)
	}
}

// A histogram whose samples moved but whose count did not must still
// differ: the sum and the per-bucket counts are compared too.
func TestDiffSnapshotsComparesHistogramShape(t *testing.T) {
	base := obs.Snapshot{Histograms: map[string]obs.HistSnapshot{"h": {Count: 2, Sum: 10, Buckets: []obs.HistBucket{{Le: 7, N: 2}}}}}
	cur := obs.Snapshot{Histograms: map[string]obs.HistSnapshot{"h": {Count: 2, Sum: 900, Buckets: []obs.HistBucket{{Le: 511, N: 2}}}}}
	changes, err := diffSnapshots(t, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	want := []sweep.Change{
		{Path: ".histograms.h.buckets[0].le", Base: "7", Cur: "511"},
		{Path: ".histograms.h.sum", Base: "10", Cur: "900"},
	}
	if !reflect.DeepEqual(changes, want) {
		t.Fatalf("changes = %+v, want %+v", changes, want)
	}
}
