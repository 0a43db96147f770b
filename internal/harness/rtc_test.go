package harness

import (
	"testing"
	"time"
)

// TestGCCRunsInEveryFamily is the scheme-coverage gate for the new
// baseline: gcc must build and carry traffic in every scenario family on
// every RAT the family supports.
func TestGCCRunsInEveryFamily(t *testing.T) {
	for _, f := range Families() {
		for _, rat := range []string{RATLTE, RATNR} {
			f, rat := f, rat
			t.Run(f.ID+"/"+rat, func(t *testing.T) {
				t.Parallel()
				sc, err := BuildScenario(f.ID, "gcc", Params{Seed: 5, RAT: rat, Duration: time.Second})
				if err != nil {
					t.Fatal(err)
				}
				res := Run(sc)
				fr := res.Flows[0]
				if fr.Scheme != "gcc" {
					t.Fatalf("flow 0 runs %q, want gcc", fr.Scheme)
				}
				if fr.Received == 0 {
					t.Fatal("gcc delivered no packets")
				}
			})
		}
	}
}

func TestRTCFamilyFrameMetrics(t *testing.T) {
	for _, rat := range []string{RATLTE, RATNR} {
		rat := rat
		t.Run(rat, func(t *testing.T) {
			t.Parallel()
			sc, err := BuildScenario("rtc", "pbe", Params{Seed: 3, RAT: rat, Duration: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			fr := Run(sc).Flows[0]
			if fr.Frames == nil {
				t.Fatal("rtc flow has no frame metrics")
			}
			if fr.Frames.Released < 40 {
				t.Fatalf("released %d frames in 2 s at 30 fps", fr.Frames.Released)
			}
			// PBE-CC feedback must hold the call at interactive latency.
			if p95 := fr.Frames.Delay.Percentile(95); p95 > 150 {
				t.Fatalf("p95 frame delay %.1f ms under pbe", p95)
			}
		})
	}
}

func TestRTCFamilyHonorsCellsAxis(t *testing.T) {
	sc, err := BuildScenario("rtc", "pbe", Params{Seed: 3, Cells: 2, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Cells) != 2 {
		t.Fatalf("rtc with Cells=2 built %d LTE cells", len(sc.Cells))
	}
}

func TestSFUScenarioFansOutToEveryUE(t *testing.T) {
	sc, err := BuildScenario("sfu", "pbe", Params{Seed: 9, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Flows) != SFUSubscribers {
		t.Fatalf("sfu scenario has %d flows, want %d", len(sc.Flows), SFUSubscribers)
	}
	// Subscribers must span both RATs.
	lte, nr := 0, 0
	for _, ue := range sc.UEs {
		if len(ue.CellIDs) > 0 {
			lte++
		}
		if len(ue.NRCellIDs) > 0 {
			nr++
		}
	}
	if lte == 0 || nr == 0 {
		t.Fatalf("subscribers not spread across RATs: %d LTE, %d NR", lte, nr)
	}
	res := Run(sc)
	for i, fr := range res.Flows {
		if fr.Frames == nil {
			t.Fatalf("subscriber %d has no frame metrics", sc.Flows[i].ID)
		}
		if fr.Frames.Released == 0 {
			t.Fatalf("subscriber %d released no frames", sc.Flows[i].ID)
		}
	}
	if res.Flows[0].Scheme != "pbe" {
		t.Fatalf("measured subscriber runs %q, want pbe", res.Flows[0].Scheme)
	}
	for i, fr := range res.Flows[1:] {
		if fr.Scheme != "gcc" {
			t.Fatalf("background subscriber %d runs %q, want gcc", sc.Flows[1+i].ID, fr.Scheme)
		}
	}
}

// TestMediaFlowPaddingExcludedFromGoodput checks that probe padding never
// counts toward the flow's throughput metric: a starved encoder on an
// idle cell must report only media goodput.
func TestMediaFlowPaddingExcludedFromGoodput(t *testing.T) {
	sc, err := BuildScenario("rtc", "gcc", Params{Seed: 4, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	fr := Run(sc).Flows[0]
	// The top ladder rung is 8 Mbit/s; goodput beyond ~9 means padding
	// leaked into the metric.
	if fr.AvgTputMbps > 9 {
		t.Fatalf("media goodput %.1f Mbit/s exceeds the encoder ladder", fr.AvgTputMbps)
	}
	if fr.Frames.Released == 0 {
		t.Fatal("no frames released")
	}
}
