package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/stats"
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

// TestJobsExpandLocations pins where the location axis sits in the
// expansion order (inside scheme, outside seed) and how a located job's
// seed maps to its scenario seed.
func TestJobsExpandLocations(t *testing.T) {
	s := &Spec{
		Experiments: []string{"steady"},
		Schemes:     []string{"pbe", "bbr"},
		Seeds:       []int64{1, 2},
		Locations:   []int{13, 3},
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	for i, want := range []struct {
		scheme   string
		location int
		seed     int64
	}{{"pbe", 13, 1}, {"pbe", 13, 2}, {"pbe", 3, 1}, {"pbe", 3, 2},
		{"bbr", 13, 1}, {"bbr", 13, 2}, {"bbr", 3, 1}, {"bbr", 3, 2}} {
		j := jobs[i]
		if j.Scheme != want.scheme || j.Location == nil || *j.Location != want.location || j.Seed != want.seed {
			t.Fatalf("job %d = %+v, want %+v", i, j, want)
		}
	}
	// Seed s runs at 1000*s + index: seed 1 is the grid figures' seed.
	for _, c := range []struct {
		job  int
		seed int64
	}{{0, 1013}, {1, 2013}, {3, 2003}} {
		sc, err := harness.BuildScenario("steady", "pbe", jobs[c.job].params(s))
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seed != c.seed {
			t.Errorf("job %d runs at scenario seed %d, want %d", c.job, sc.Seed, c.seed)
		}
	}
}

// TestLocatedRowsMatchGridRuns pins that a located row at seed 1 is the
// 2-decimal rounding of the grid location's own scenario, on one busy and
// one idle location.
func TestLocatedRowsMatchGridRuns(t *testing.T) {
	const dur = 600 * time.Millisecond
	spec := &Spec{Experiments: []string{"steady"}, Schemes: []string{"pbe"},
		Seeds: []int64{1}, Locations: []int{3, 13}, DurationMs: int(dur / time.Millisecond)}
	grid := harness.LocationGrid()
	if !grid[3].Busy || grid[13].Busy {
		t.Fatal("want location 3 busy and 13 idle")
	}
	res, err := Run(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, loc := range spec.Locations {
		r := res.Rows[i]
		f := harness.Run(harness.LocationScenario(grid[loc], "pbe", dur)).Flows[0]
		want := []float64{stats.Round2(f.AvgTputMbps), stats.Round2(f.Delay.Percentile(50)),
			stats.Round2(f.Delay.Percentile(95)), stats.Round2(f.PBEErrPct)}
		got := []float64{r.TputMbps, r.DelayP50Ms, r.DelayP95Ms, r.PBEErrPct}
		if r.Location == nil || *r.Location != loc || !reflect.DeepEqual(got, want) {
			t.Errorf("location %d: row %+v carries %v, want %v", loc, r, got, want)
		}
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"location": 13`) {
		t.Error("result JSON does not name the row's location")
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
	// one is a valid one-job spec that each case breaks on one axis.
	one := func(edit func(*Spec)) *Spec {
		s := &Spec{Experiments: []string{"steady"}, Schemes: []string{"pbe"}, Seeds: []int64{1}}
		edit(s)
		return s
	}
	cases := []struct {
		name string
		spec *Spec
		want string // substring the error must carry ("" = any error)
	}{
		{"unknown family", one(func(s *Spec) { s.Experiments = []string{"nosuch"} }), ""},
		{"unknown scheme", one(func(s *Spec) { s.Schemes = []string{"nosuch"} }), ""},
		{"empty spec", &Spec{}, ""},
		// Seed 0 would run a mislabeled default-seed job.
		{"seed 0", one(func(s *Spec) { s.Seeds = []int64{0} }), "seed 0"},
		{"cell_counts on a family that ignores them", &Spec{Experiments: []string{"mobility"},
			Schemes: []string{"pbe"}, Seeds: []int64{1}, CellCounts: []int{2}}, ""},
		// Only the first noise level of each (experiment, RAT, scheme,
		// cells) reaches BuildScenario, so a later negative one must be
		// caught here.
		{"negative noise level", one(func(s *Spec) { s.NoiseLevels = []float64{0, -0.1} }), "-0.1"},
		// A value listed twice on any axis would run identical jobs and
		// count their samples twice in the summaries.
		{"repeated experiment", one(func(s *Spec) { s.Experiments = []string{"steady", "steady"} }), "experiments"},
		{"repeated scheme", one(func(s *Spec) { s.Schemes = []string{"pbe", "bbr", "pbe"} }), "schemes"},
		{"repeated seed", one(func(s *Spec) { s.Seeds = []int64{5, 5} }), "seeds"},
		{"repeated rat", one(func(s *Spec) { s.RATs = []string{"nr", "nr"} }), "rats"},
		{"repeated cell count", one(func(s *Spec) { s.CellCounts = []int{2, 2} }), "cell_counts"},
		{"repeated noise level", one(func(s *Spec) { s.NoiseLevels = []float64{0.1, 0.1} }), "noise_levels"},
		{"repeated fault axis", one(func(s *Spec) { s.FaultAxes = []string{"stale", "stale"} }), "fault_axes"},
		{"repeated fault level", one(func(s *Spec) {
			s.FaultAxes = []string{"stale"}
			s.FaultLevels = []float64{0.5, 0.5}
		}), "fault_levels"},
		{"repeated location", one(func(s *Spec) { s.Locations = []int{4, 4} }), "locations"},
		// A grid location is an LTE spot of the steady family with its
		// own carriers and load.
		{"location on another family", one(func(s *Spec) {
			s.Experiments = []string{"mobility"}
			s.Locations = []int{3}
		}), "location axis"},
		{"location on nr", one(func(s *Spec) {
			s.RATs = []string{"lte", "nr"}
			s.Locations = []int{3}
		}), "LTE grid spot"},
		{"location with cell counts", one(func(s *Spec) {
			s.CellCounts = []int{2}
			s.Locations = []int{3}
		}), "carriers and load"},
		{"location on a busy spec", one(func(s *Spec) {
			s.Busy = true
			s.Locations = []int{3}
		}), "carriers and load"},
		{"location past the grid", one(func(s *Spec) { s.Locations = []int{0, 40} }), "0-39"},
		{"negative location", one(func(s *Spec) { s.Locations = []int{-1} }), "0-39"},
	}
	for _, c := range cases {
		_, err := c.spec.Jobs()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Jobs() error = %v, want one naming %q", c.name, err, c.want)
		}
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
		{Job: Job{Experiment: "steady", RAT: "lte", Scheme: "pbe", Seed: 1}, TputMbps: 10, DelayP95Ms: 20, Utilization: 0.1},
		{Job: Job{Experiment: "steady", RAT: "lte", Scheme: "pbe", Seed: 2}, TputMbps: 30, DelayP95Ms: 40, Utilization: 0.3},
		{Job: Job{Experiment: "steady", RAT: "lte", Scheme: "bbr", Seed: 1}, TputMbps: 5, DelayP95Ms: 50, Utilization: 0.05},
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

// diffDocs encodes base and cur as JSON and runs them through Diff.
func diffDocs(t *testing.T, base, cur any) ([]Change, error) {
	t.Helper()
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	c, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	return Diff(b, c)
}

// mustDiff is diffDocs for documents that must be comparable.
func mustDiff(t *testing.T, base, cur any) []Change {
	t.Helper()
	changes, err := diffDocs(t, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	return changes
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
		Tput:        Metric{Mean: 80},  // 20% lower
		DelayP95:    Metric{P50: 45},   // 10% lower
		Utilization: Metric{Mean: 0.5}, // unchanged
	}}}
	changes := mustDiff(t, base, cur)
	// Exactly the two moved leaves, in path order.
	want := []Change{
		{Path: ".summaries[0].delay_p95_ms.p50", Base: "50", Cur: "45"},
		{Path: ".summaries[0].tput_mbps.mean", Base: "100", Cur: "80"},
	}
	if !reflect.DeepEqual(changes, want) {
		t.Fatalf("changes = %+v, want %+v", changes, want)
	}
	for i, pct := range []float64{-10, -20} {
		if got, ok := relPct(changes[i]); !ok || got != pct {
			t.Fatalf("%s relative change = %v (%v), want %v", changes[i].Path, got, ok, pct)
		}
	}
	var out bytes.Buffer
	FprintChanges(&out, changes)
	if !strings.Contains(out.String(), ".summaries[0].tput_mbps.mean  100 -> 80  (-20.00%)") ||
		!strings.HasSuffix(out.String(), "\ndiffering leaves: 2\n") {
		t.Fatalf("printed diff:\n%s", out.String())
	}
	if changes := mustDiff(t, base, base); len(changes) != 0 {
		t.Fatalf("self-diff = %+v, want none", changes)
	}
}

func TestDiffRejectsMismatchedGroups(t *testing.T) {
	base := &Result{Summaries: []Summary{
		{Experiment: "steady", RAT: "lte", Scheme: "pbe"},
	}}
	cur := &Result{Summaries: []Summary{
		{Experiment: "steady", RAT: "lte", Scheme: "bbr"},
	}}
	want := []Change{{Path: ".summaries[0].scheme", Base: `"pbe"`, Cur: `"bbr"`}}
	if changes := mustDiff(t, base, cur); !reflect.DeepEqual(changes, want) {
		t.Fatalf("mismatched groups: changes = %+v, want %+v", changes, want)
	}
	// A group present on one side only is one change: its whole subtree.
	cur.Summaries = append(cur.Summaries, cur.Summaries[0])
	changes := mustDiff(t, cur, base)
	if len(changes) != 2 || changes[1].Path != ".summaries[1]" || changes[1].Cur != "" {
		t.Fatalf("vanished group: changes = %+v", changes)
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
	if _, err := diffDocs(t, base, cur); err == nil || !strings.Contains(err.Error(), ".spec.duration_ms 1000 -> 4000") {
		t.Fatalf("differing duration_ms not rejected by name despite identical group keys: %v", err)
	}
	// A rename alone stays comparable; the name is the one change.
	cur.Spec.DurationMs = base.Spec.DurationMs
	want := []Change{{Path: ".spec.name", Base: `"old"`, Cur: `"new"`}}
	if changes := mustDiff(t, base, cur); !reflect.DeepEqual(changes, want) {
		t.Fatalf("rename-only diff = %+v, want %+v", changes, want)
	}
	// The spec is compared across artifact kinds too: a result and a
	// scorecard of one spec are comparable, a spec and no spec are not.
	if _, err := diffDocs(t, base, &Scorecard{Spec: base.Spec}); err != nil {
		t.Fatalf("same spec across artifact kinds rejected: %v", err)
	}
	if _, err := diffDocs(t, base, map[string]int{"x": 1}); err == nil {
		t.Fatal("a document without a spec compared against one with a spec")
	}
}

// The committed baselines go through the diff as they are: a copy of a
// file is identical to it, and one edited number is the one change.
func TestDiffCommittedBaselines(t *testing.T) {
	at := func(v any, keys ...any) map[string]any {
		for _, k := range keys {
			if i, ok := k.(int); ok {
				v = v.([]any)[i]
			} else {
				v = v.(map[string]any)[k.(string)]
			}
		}
		return v.(map[string]any)
	}
	cases := []struct {
		file, path string
		edit       func(doc map[string]any)
	}{
		{"BENCH_baseline.json", ".summaries[1].tput_mbps.mean",
			func(doc map[string]any) { at(doc, "summaries", 1, "tput_mbps")["mean"] = -1.0 }},
		{"BENCH_scorecard_baseline.json", ".schemes[1].robustness_pct",
			func(doc map[string]any) { at(doc, "schemes", 1)["robustness_pct"] = -1.0 }},
	}
	for _, c := range cases {
		data, err := os.ReadFile("../../" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		if changes, err := Diff(data, bytes.Clone(data)); err != nil || len(changes) != 0 {
			t.Fatalf("%s against itself: %d changes, err %v", c.file, len(changes), err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		c.edit(doc)
		edited, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		changes, err := Diff(data, edited)
		if err != nil || len(changes) != 1 || changes[0].Path != c.path {
			t.Fatalf("%s with %s edited: changes %+v, err %v", c.file, c.path, changes, err)
		}
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
	changes := mustDiff(t, mk(100), mk(120))
	want := []Change{{Path: ".summaries[0].frame.p95_ms.p50", Base: "100", Cur: "120"}}
	if !reflect.DeepEqual(changes, want) {
		t.Fatalf("changes = %+v, want %+v", changes, want)
	}
	if pct, _ := relPct(changes[0]); pct != 20 {
		t.Fatalf("frame p95 relative change = %v, want 20", pct)
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
	changes := mustDiff(t, withFrame, withoutFrame)
	if len(changes) != 1 || changes[0].Path != ".summaries[0].frame" || changes[0].Cur != "" {
		t.Fatalf("frame metrics vanishing from a group: changes = %+v", changes)
	}
	changes = mustDiff(t, withoutFrame, withFrame)
	if len(changes) != 1 || changes[0].Path != ".summaries[0].frame" || changes[0].Base != "" {
		t.Fatalf("frame metrics appearing in a group: changes = %+v", changes)
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
