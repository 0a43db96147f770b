package sweep

import (
	"bytes"
	"testing"
)

// scorecardTestSpec is a cut-down scorecard matrix: one media family, a
// monitor scheme and an end-to-end scheme, one monitor-only axis and the
// everyone-feels-it onoff axis.
func scorecardTestSpec() *Spec {
	return &Spec{
		Name:        "scorecard-test",
		Experiments: []string{"rtc"},
		Schemes:     []string{"pbertc", "gcc"},
		Seeds:       []int64{1},
		FaultAxes:   []string{"stale", "onoff"},
		FaultLevels: []float64{1},
		DurationMs:  300,
	}
}

func TestJobsFaultAxisExpansion(t *testing.T) {
	s := &Spec{
		Experiments: []string{"rtc"},
		Schemes:     []string{"pbe", "cubic"},
		Seeds:       []int64{1, 2},
		FaultAxes:   []string{"stale", "miss", "handover", "onoff"},
		FaultLevels: []float64{1},
		DurationMs:  300,
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// pbe crosses the clean point plus all four axes; cubic never reads
	// the monitor, so its monitor axes collapse and only onoff remains.
	if want := (5 + 2) * 2; len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	for _, j := range jobs {
		if j.Scheme == "cubic" && j.FaultAxis != "" && j.FaultAxis != "onoff" {
			t.Fatalf("monitor fault axis not collapsed for cubic: %+v", j)
		}
		if (j.FaultAxis == "") != (j.FaultLevel == 0) {
			t.Fatalf("axis/level mismatch: %+v", j)
		}
	}
}

func TestJobsRejectBadFaultAxes(t *testing.T) {
	bad := &Spec{Experiments: []string{"rtc"}, Schemes: []string{"pbe"}, Seeds: []int64{1},
		FaultAxes: []string{"nosuch"}}
	if _, err := bad.Jobs(); err == nil {
		t.Fatal("unknown fault axis passed validation")
	}
	bad = &Spec{Experiments: []string{"rtc"}, Schemes: []string{"pbe"}, Seeds: []int64{1},
		FaultAxes: []string{"stale"}, FaultLevels: []float64{0}}
	if _, err := bad.Jobs(); err == nil {
		t.Fatal("zero fault level passed validation (duplicate clean point)")
	}
	bad = &Spec{Experiments: []string{"rtc"}, Schemes: []string{"pbe"}, Seeds: []int64{1},
		FaultAxes: []string{"stale"}, FaultLevels: []float64{1.5}}
	if _, err := bad.Jobs(); err == nil {
		t.Fatal("fault level above 1 passed validation")
	}
}

// runScorecard runs the spec on workers and folds the rows into the
// ranked scorecard, as pbesweep -scorecard does.
func runScorecard(t *testing.T, spec *Spec, workers int) *Scorecard {
	t.Helper()
	res, err := RunProgress(spec, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScorecard(res)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestScorecardBytesStableAcrossWorkers is the scorecard's determinism
// contract: the ranked JSON must be byte-identical for any worker count.
func TestScorecardBytesStableAcrossWorkers(t *testing.T) {
	serial := runScorecard(t, scorecardTestSpec(), 1)
	parallel := runScorecard(t, scorecardTestSpec(), 8)
	var a, b bytes.Buffer
	if err := WriteScorecard(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteScorecard(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("workers=1 and workers=8 scorecards differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestScorecardBytesStableAcrossShards: the -shards flag may only change
// wall-clock time, never the scorecard bytes.
func TestScorecardBytesStableAcrossShards(t *testing.T) {
	one := scorecardTestSpec()
	one.Shards = 1
	four := scorecardTestSpec()
	four.Shards = 4
	s1 := runScorecard(t, one, 4)
	s4 := runScorecard(t, four, 4)
	// Shards is json:"-", so the bytes compare across the whole card.
	var a, b bytes.Buffer
	if err := WriteScorecard(&a, s1); err != nil {
		t.Fatal(err)
	}
	if err := WriteScorecard(&b, s4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("shards=1 and shards=4 scorecards differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestScorecardShape(t *testing.T) {
	sc := runScorecard(t, scorecardTestSpec(), 4)
	if len(sc.Schemes) != 2 {
		t.Fatalf("scorecard has %d schemes, want 2", len(sc.Schemes))
	}
	for i := 1; i < len(sc.Schemes); i++ {
		if sc.Schemes[i].RobustnessPct < sc.Schemes[i-1].RobustnessPct {
			t.Fatalf("ranking not ascending: %v then %v",
				sc.Schemes[i-1].RobustnessPct, sc.Schemes[i].RobustnessPct)
		}
	}
	byScheme := map[string]SchemeScore{}
	for _, s := range sc.Schemes {
		byScheme[s.Scheme] = s
		if s.CleanTputMbps <= 0 {
			t.Fatalf("%s clean baseline carried no traffic", s.Scheme)
		}
		if len(s.Axes) != 2 { // stale@1, onoff@1
			t.Fatalf("%s has %d axis points, want 2", s.Scheme, len(s.Axes))
		}
	}
	for _, p := range byScheme["gcc"].Axes {
		if p.Axis == "stale" && !p.Unaffected {
			t.Fatal("gcc marked affected by a monitor-only fault")
		}
		if p.Axis == "onoff" && p.Unaffected {
			t.Fatal("gcc marked unaffected by the onoff competitor")
		}
	}
	for _, p := range byScheme["pbertc"].Axes {
		if p.Unaffected {
			t.Fatalf("pbertc marked unaffected by %s", p.Axis)
		}
	}
}

func TestBuildScorecardRejectsCleanOnlyResult(t *testing.T) {
	res, err := Run(&Spec{Name: "clean", Experiments: []string{"rtc"},
		Schemes: []string{"gcc"}, Seeds: []int64{1}, DurationMs: 300}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildScorecard(res); err == nil {
		t.Fatal("scorecard built from a sweep with no fault axes")
	}
}

func TestDiffScorecardGate(t *testing.T) {
	base := runScorecard(t, scorecardTestSpec(), 4)
	deltas, err := DiffScorecard(base, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := WorstRegression(deltas); got != 0 {
		t.Fatalf("self-diff worst regression = %v, want 0", got)
	}
	// A scheme getting less robust must surface as a positive delta in
	// percentage points.
	worse := *base
	worse.Schemes = append([]SchemeScore(nil), base.Schemes...)
	worse.Schemes[0].RobustnessPct += 7
	deltas, err = DiffScorecard(base, &worse)
	if err != nil {
		t.Fatal(err)
	}
	if got := WorstRegression(deltas); got != 7 {
		t.Fatalf("worst regression = %v, want 7", got)
	}
	// A different matrix must not diff quietly.
	other := *base
	other.Spec.Seeds = []int64{9}
	if _, err := DiffScorecard(base, &other); err == nil {
		t.Fatal("mismatched specs diffed without error")
	}
}
