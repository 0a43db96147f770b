package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func testSpec() *Spec {
	return &Spec{
		Name:        "test",
		Experiments: []string{"steady", "competition"},
		Schemes:     []string{"pbe", "bbr"},
		Seeds:       []int64{1, 2},
		DurationMs:  400,
	}
}

func TestJobsExpansionOrderAndCount(t *testing.T) {
	s := &Spec{
		Experiments: []string{"steady", "competition", "multiflow"},
		Schemes:     []string{"pbe", "bbr"},
		Seeds:       []int64{1, 2, 3, 4},
		RATs:        []string{"lte", "nr"},
		NoiseLevels: []float64{0, 0.1},
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// pbe crosses both noise levels; bbr ignores the monitor, so its
	// noise axis collapses to the noise-free point.
	if want := 3 * 2 * (2 + 1) * 4; len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	for _, j := range jobs {
		if j.Scheme == "bbr" && j.Noise != 0 {
			t.Fatalf("noise axis not collapsed for bbr: %+v", j)
		}
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d carries index %d", i, j.Index)
		}
	}
	// Innermost axis is the seed: the first jobs differ only by seed.
	if jobs[0].Seed != 1 || jobs[1].Seed != 2 || jobs[0].Experiment != jobs[3].Experiment {
		t.Fatalf("expansion order drifted: %+v %+v", jobs[0], jobs[1])
	}
	// Expansion is deterministic.
	again, _ := s.Jobs()
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("job %d differs between expansions", i)
		}
	}
}

// TestBuiltins pins the names pbesweep -spec resolves: each is the Name
// its constructor sets (and the committed baselines serialize), no two
// collide, and every built-in spec expands.
func TestBuiltins(t *testing.T) {
	ctors := map[string]func() *Spec{
		"smoke": Smoke, "metro-smoke": MetroSmoke, "nation-smoke": NationSmoke,
		"traj": TrajSmoke, "scorecard": ScorecardSpec,
	}
	seen := map[string]bool{}
	for _, spec := range Builtins() {
		if seen[spec.Name] {
			t.Fatalf("built-in name %q is listed twice", spec.Name)
		}
		seen[spec.Name] = true
		ctor, ok := ctors[spec.Name]
		if !ok {
			t.Fatalf("built-in %q has no known constructor", spec.Name)
		}
		if !reflect.DeepEqual(spec, ctor()) {
			t.Fatalf("built-in %q differs from its constructor's spec", spec.Name)
		}
		if jobs, err := spec.Jobs(); err != nil || len(jobs) == 0 {
			t.Fatalf("built-in %q: %d jobs, err %v", spec.Name, len(jobs), err)
		}
	}
	if len(seen) != len(ctors) {
		t.Fatalf("%d built-in specs, want %d", len(seen), len(ctors))
	}
}

func TestJobsValidatesUpfront(t *testing.T) {
	bad := &Spec{Experiments: []string{"nosuch"}, Schemes: []string{"pbe"}, Seeds: []int64{1}}
	if _, err := bad.Jobs(); err == nil {
		t.Fatal("unknown family passed validation")
	}
	bad = &Spec{Experiments: []string{"steady"}, Schemes: []string{"nosuch"}, Seeds: []int64{1}}
	if _, err := bad.Jobs(); err == nil {
		t.Fatal("unknown scheme passed validation")
	}
	empty := &Spec{}
	if _, err := empty.Jobs(); err == nil {
		t.Fatal("empty spec passed validation")
	}
	zeroSeed := &Spec{Experiments: []string{"steady"}, Schemes: []string{"pbe"}, Seeds: []int64{0}}
	if _, err := zeroSeed.Jobs(); err == nil {
		t.Fatal("seed 0 passed validation (would run a mislabeled default-seed job)")
	}
	cellsOnMobility := &Spec{Experiments: []string{"mobility"}, Schemes: []string{"pbe"},
		Seeds: []int64{1}, CellCounts: []int{2}}
	if _, err := cellsOnMobility.Jobs(); err == nil {
		t.Fatal("cell_counts accepted for a family that ignores them")
	}
	// Only the first noise level of each (experiment, RAT, scheme, cells)
	// reaches BuildScenario, so a later negative one must be caught here.
	negNoise := &Spec{Experiments: []string{"steady"}, Schemes: []string{"pbe"},
		Seeds: []int64{1}, NoiseLevels: []float64{0, -0.1}}
	if _, err := negNoise.Jobs(); err == nil || !strings.Contains(err.Error(), "-0.1") {
		t.Fatalf("negative noise level not rejected by name: %v", err)
	}
}

// TestParallelismDoesNotChangeBytes is the core determinism contract: the
// same spec run serially and with eight workers must serialize to
// byte-identical JSON.
func TestParallelismDoesNotChangeBytes(t *testing.T) {
	spec := testSpec()
	serial, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteResult(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("workers=1 and workers=8 produced different bytes:\n%s\nvs\n%s",
			a.String(), b.String())
	}
	if len(serial.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(serial.Rows))
	}
	for _, r := range serial.Rows {
		if r.TputMbps <= 0 {
			t.Fatalf("job %+v measured no throughput", r)
		}
	}
}

func TestSummarizeGroups(t *testing.T) {
	rows := []Row{
		{Experiment: "steady", RAT: "lte", Scheme: "pbe", Seed: 1, TputMbps: 10, DelayP95Ms: 20, Utilization: 0.1},
		{Experiment: "steady", RAT: "lte", Scheme: "pbe", Seed: 2, TputMbps: 30, DelayP95Ms: 40, Utilization: 0.3},
		{Experiment: "steady", RAT: "lte", Scheme: "bbr", Seed: 1, TputMbps: 5, DelayP95Ms: 50, Utilization: 0.05},
	}
	sums := Summarize(rows)
	if len(sums) != 2 {
		t.Fatalf("groups = %d, want 2", len(sums))
	}
	// Sorted by key: steady/lte/bbr before steady/lte/pbe.
	if sums[0].Scheme != "bbr" || sums[1].Scheme != "pbe" {
		t.Fatalf("group order: %s, %s", sums[0].Key(), sums[1].Key())
	}
	if sums[1].Jobs != 2 || sums[1].Tput.Mean != 20 {
		t.Fatalf("pbe group: jobs=%d mean=%v", sums[1].Jobs, sums[1].Tput.Mean)
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	base := &Result{Summaries: []Summary{{
		Experiment: "steady", RAT: "lte", Scheme: "pbe", Jobs: 2,
		Tput:        Metric{Mean: 100},
		DelayP95:    Metric{P50: 50},
		Utilization: Metric{Mean: 0.5},
	}}}
	cur := &Result{Summaries: []Summary{{
		Experiment: "steady", RAT: "lte", Scheme: "pbe", Jobs: 2,
		Tput:        Metric{Mean: 80},  // 20% worse
		DelayP95:    Metric{P50: 45},   // 10% better
		Utilization: Metric{Mean: 0.5}, // unchanged
	}}}
	deltas, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d, want 3", len(deltas))
	}
	byMetric := map[string]Delta{}
	for _, d := range deltas {
		byMetric[d.Metric] = d
	}
	if got := byMetric["tput_mbps.mean"].RegressPct; got != 20 {
		t.Fatalf("tput regression = %v, want 20", got)
	}
	if got := byMetric["delay_p95_ms.p50"].RegressPct; got != -10 {
		t.Fatalf("delay regression = %v, want -10 (improvement)", got)
	}
	if got := byMetric["utilization.mean"].RegressPct; got != 0 {
		t.Fatalf("utilization regression = %v, want 0", got)
	}
	if got := WorstRegression(deltas); got != 20 {
		t.Fatalf("worst = %v, want 20", got)
	}
}

func TestDiffRejectsMismatchedGroups(t *testing.T) {
	base := &Result{Summaries: []Summary{
		{Experiment: "steady", RAT: "lte", Scheme: "pbe"},
	}}
	cur := &Result{Summaries: []Summary{
		{Experiment: "steady", RAT: "lte", Scheme: "bbr"},
	}}
	if _, err := Diff(base, cur); err == nil {
		t.Fatal("mismatched groups not rejected")
	}
	if _, err := Diff(cur, base); err == nil {
		t.Fatal("mismatched groups not rejected in reverse")
	}
}

func TestDiffRejectsMismatchedSpecs(t *testing.T) {
	summaries := []Summary{{Experiment: "steady", RAT: "lte", Scheme: "pbe"}}
	base := &Result{
		Spec:      Spec{Name: "old", Experiments: []string{"steady"}, Schemes: []string{"pbe"}, Seeds: []int64{1, 2}, DurationMs: 1000},
		Summaries: summaries,
	}
	cur := &Result{
		Spec:      Spec{Name: "new", Experiments: []string{"steady"}, Schemes: []string{"pbe"}, Seeds: []int64{1, 2}, DurationMs: 4000},
		Summaries: summaries,
	}
	if _, err := Diff(base, cur); err == nil {
		t.Fatal("differing duration_ms not rejected despite identical group keys")
	}
	// A rename alone must stay comparable.
	cur.Spec.DurationMs = base.Spec.DurationMs
	if _, err := Diff(base, cur); err != nil {
		t.Fatalf("rename-only spec difference rejected: %v", err)
	}
}

func TestSpecHashNameInsensitiveAxisSensitive(t *testing.T) {
	a := Spec{Name: "a", Experiments: []string{"steady"}, Schemes: []string{"pbe"}, Seeds: []int64{1}, DurationMs: 1000}
	b := a
	b.Name = "renamed"
	if SpecHash(a) != SpecHash(b) {
		t.Fatal("rename changed the spec hash")
	}
	b.DurationMs = 2000
	if SpecHash(a) == SpecHash(b) {
		t.Fatal("differing duration_ms hashed identically")
	}
}

func TestSmokeSpecSatisfiesGate(t *testing.T) {
	jobs, err := Smoke().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance floor: >= 24 jobs from >= 2 algorithms x >= 3
	// experiments x >= 4 seeds.
	if len(jobs) < 24 {
		t.Fatalf("smoke sweep has %d jobs, want >= 24", len(jobs))
	}
	schemes, exps, seeds := map[string]bool{}, map[string]bool{}, map[int64]bool{}
	for _, j := range jobs {
		schemes[j.Scheme] = true
		exps[j.Experiment] = true
		seeds[j.Seed] = true
	}
	if len(schemes) < 2 || len(exps) < 3 || len(seeds) < 4 {
		t.Fatalf("smoke axes: %d schemes, %d experiments, %d seeds",
			len(schemes), len(exps), len(seeds))
	}
}

func TestFrameMetricsSurfaceInMediaRows(t *testing.T) {
	spec := &Spec{
		Name:        "rtc-test",
		Experiments: []string{"rtc"},
		Schemes:     []string{"gcc"},
		Seeds:       []int64{1},
		DurationMs:  600,
	}
	res, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r.Frames == 0 {
		t.Fatal("rtc row carries no frame count")
	}
	if r.FrameP95Ms <= 0 {
		t.Fatalf("rtc row frame p95 = %v", r.FrameP95Ms)
	}
	if len(res.Summaries) != 1 || res.Summaries[0].Frame == nil {
		t.Fatal("rtc summary carries no frame distributions")
	}
}

func TestBulkRowsCarryNoFrameMetrics(t *testing.T) {
	res, err := Run(&Spec{
		Name: "bulk", Experiments: []string{"steady"}, Schemes: []string{"bbr"},
		Seeds: []int64{1}, DurationMs: 400,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Frames != 0 || res.Summaries[0].Frame != nil {
		t.Fatal("bulk job grew frame metrics")
	}
}

func TestDiffTracksFrameDelay(t *testing.T) {
	mk := func(p95 float64) *Result {
		return &Result{Summaries: []Summary{{
			Experiment: "rtc", RAT: "lte", Scheme: "gcc", Jobs: 1,
			Tput: Metric{Mean: 5}, DelayP95: Metric{P50: 30}, Utilization: Metric{Mean: 0.1},
			Frame: &FrameSummary{P95Ms: Metric{P50: p95}},
		}}}
	}
	deltas, err := Diff(mk(100), mk(120))
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]Delta{}
	for _, d := range deltas {
		byMetric[d.Metric] = d
	}
	d, ok := byMetric["frame_p95_ms.p50"]
	if !ok {
		t.Fatal("frame delay not tracked for a media group")
	}
	if d.RegressPct != 20 {
		t.Fatalf("frame p95 regression = %v, want 20", d.RegressPct)
	}
}

func TestDiffRejectsFramePresenceMismatch(t *testing.T) {
	withFrame := &Result{Summaries: []Summary{{
		Experiment: "rtc", RAT: "lte", Scheme: "gcc",
		Frame: &FrameSummary{},
	}}}
	withoutFrame := &Result{Summaries: []Summary{{
		Experiment: "rtc", RAT: "lte", Scheme: "gcc",
	}}}
	if _, err := Diff(withFrame, withoutFrame); err == nil {
		t.Fatal("frame metrics vanishing from a group not rejected")
	}
	if _, err := Diff(withoutFrame, withFrame); err == nil {
		t.Fatal("frame metrics appearing in a group not rejected")
	}
}

// TestSFUSweepDeterminism runs the heaviest new family through the
// worker-pool determinism contract: a 32-subscriber fan-out must still
// serialize byte-identically for any worker count.
func TestSFUSweepDeterminism(t *testing.T) {
	spec := &Spec{
		Name:        "sfu-test",
		Experiments: []string{"sfu"},
		Schemes:     []string{"gcc"},
		Seeds:       []int64{1, 2},
		RATs:        []string{"lte", "nr"},
		DurationMs:  500,
	}
	serial, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteResult(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sfu sweep bytes differ between workers=1 and workers=8")
	}
	for _, r := range serial.Rows {
		if r.Frames == 0 {
			t.Fatalf("sfu job %+v released no frames", r)
		}
	}
}
