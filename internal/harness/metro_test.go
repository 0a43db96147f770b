package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pbecc/internal/stats"
)

// metroFingerprint serializes everything a sweep row could read from a
// completed run - every flow's throughput, delay percentiles, loss and
// frame statistics - so two runs compare byte-for-byte.
func metroFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	type flowFP struct {
		Scheme   string
		Tput     float64
		P50, P95 float64
		Mean     float64
		Recv     uint64
		Lost     uint64
		Frames   uint64
		Late     float64
	}
	var fps []flowFP
	for _, f := range res.Flows {
		fp := flowFP{
			Scheme: f.Scheme,
			Tput:   f.AvgTputMbps,
			P50:    f.Delay.Percentile(50), P95: f.Delay.Percentile(95),
			Mean: f.Delay.Mean(),
			Recv: f.Received, Lost: f.Lost,
		}
		if f.Frames != nil {
			fp.Frames = f.Frames.Released
			fp.Late = f.Frames.LatePct()
		}
		fps = append(fps, fp)
	}
	b, err := json.Marshal(struct {
		Flows []flowFP
		CA    bool
	}{fps, res.CATriggered})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runMetro(t *testing.T, shards int) []byte {
	t.Helper()
	sc, err := BuildScenario("metro", "pbe", Params{
		Seed: 3, Cells: 8, Duration: 400 * time.Millisecond, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return metroFingerprint(t, Run(sc))
}

// TestMetroByteIdenticalAcrossShards is the sharding contract at the
// harness level: a sharded metro run produces byte-identical results for
// any parallel width.
func TestMetroByteIdenticalAcrossShards(t *testing.T) {
	base := runMetro(t, 1)
	for _, shards := range []int{2, 4} {
		if got := runMetro(t, shards); !bytes.Equal(base, got) {
			t.Fatalf("results differ between -shards 1 and -shards %d", shards)
		}
	}
}

// TestMetroComposition checks the family delivers what it promises: the
// measured flow first, both RATs populated, a mixed bulk/rtc/sfu flow
// set, churning background users, and a multi-shard topology with a
// dedicated wired-core shard.
func TestMetroComposition(t *testing.T) {
	sc, err := BuildScenario("metro", "gcc", Params{Seed: 1, Cells: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Sharded || !sc.StreamStats || !sc.SFU {
		t.Fatalf("metro must be sharded + streaming + SFU, got %+v", sc)
	}
	if len(sc.Cells) != 4 || len(sc.NRCells) != 4 {
		t.Fatalf("want 4 LTE + 4 NR cells, got %d + %d", len(sc.Cells), len(sc.NRCells))
	}
	if got := len(sc.UEs); got != 8*MetroUEsPerCell {
		t.Fatalf("want %d UEs, got %d", 8*MetroUEsPerCell, got)
	}
	if sc.Flows[0].Scheme != "gcc" {
		t.Fatalf("first flow must be the scheme under test, got %q", sc.Flows[0].Scheme)
	}
	var bulk, media, legs, fixed, endc int
	for i := range sc.Flows {
		fs := &sc.Flows[i]
		switch {
		case fs.SFULeg:
			legs++
		case fs.Media:
			media++
		case fs.Scheme == "fixed":
			fixed++
		default:
			bulk++
		}
	}
	for _, us := range sc.UEs {
		if len(us.CellIDs) > 0 && len(us.NRCellIDs) > 0 {
			endc++
		}
	}
	if bulk != 8 || media != 8 || legs != 8 || endc != 4 || fixed == 0 {
		t.Fatalf("flow mix bulk=%d media=%d legs=%d endc=%d fixed=%d", bulk, media, legs, endc, fixed)
	}
	// 4 EN-DC-entangled LTE+NR pairs plus the wired-core shard.
	if got := len(newPlacement(sc, NewArena()).cluster.Shards()); got != 5 {
		t.Fatalf("shard topology: got %d shards, want 5", got)
	}
	// The topology must not depend on the parallel width.
	sc.Shards = 4
	if got := len(newPlacement(sc, NewArena()).cluster.Shards()); got != 5 {
		t.Fatalf("shard topology changed with Shards knob: %d", got)
	}
}

// TestMetroStreamStats: metro flows must record delay through the P²
// digest (O(1) memory per flow), not the exact series.
func TestMetroStreamStats(t *testing.T) {
	sc, err := BuildScenario("metro", "bbr", Params{
		Seed: 2, Cells: 2, Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(sc)
	f := res.Flows[0]
	if _, ok := f.Delay.(*stats.DurationP2); !ok {
		t.Fatalf("metro delay dist is %T, want *stats.DurationP2", f.Delay)
	}
	if f.Delay.Len() == 0 || f.AvgTputMbps <= 0 {
		t.Fatalf("measured flow moved no traffic: len=%d tput=%v", f.Delay.Len(), f.AvgTputMbps)
	}
}

// TestMetroScale exercises the acceptance-scale topology (128 cells,
// 2048 UEs) briefly; -short skips the run but still checks the build.
func TestMetroScale(t *testing.T) {
	sc, err := BuildScenario("metro", "pbe", Params{Seed: 1, Shards: 4,
		Duration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Cells)+len(sc.NRCells) != 128 || len(sc.UEs) != 2048 {
		t.Fatalf("default scale: %d cells, %d UEs", len(sc.Cells)+len(sc.NRCells), len(sc.UEs))
	}
	if testing.Short() {
		t.Skip("skipping 128-cell run in -short mode")
	}
	res := Run(sc)
	if res.Flows[0].Received == 0 {
		t.Fatal("measured flow received nothing at metro scale")
	}
}

// TestMetroRejectsTinyCellCounts: an explicit cell count below the
// family floor errors instead of silently running a different topology
// than the result row claims.
func TestMetroRejectsTinyCellCounts(t *testing.T) {
	if _, err := BuildScenario("metro", "pbe", Params{Cells: 1}); err == nil {
		t.Fatal("metro accepted cells=1")
	}
	if _, err := BuildScenario("metro", "pbe", Params{Cells: 2}); err != nil {
		t.Fatalf("metro rejected cells=2: %v", err)
	}
}

// TestSFULegWithoutSFUPanics: a leg-marked flow in a scenario with no
// relay is a misconfiguration, not a bulk flow.
func TestSFULegWithoutSFUPanics(t *testing.T) {
	sc, err := BuildScenario("steady", "gcc", Params{Seed: 1, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sc.Flows[0].SFULeg = true
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for SFULeg without Scenario.SFU")
		}
	}()
	Run(sc)
}
