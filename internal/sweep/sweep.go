// Package sweep expands a declarative scenario matrix - algorithms ×
// scenario families × seeds × cell counts/RATs × measurement-noise levels,
// the evaluation surface of the paper's Figs. 8-13 - into independent
// jobs, executes them across a bounded worker pool, and aggregates the
// per-job rows into machine-readable summaries.
//
// Every job runs on its own seeded engine state - each worker recycles its
// engines and storage from job to job (harness.Arena), and a recycled
// engine starts exactly as a new one - so each row is a pure function of
// its job key: the aggregated output is bit-identical regardless of worker
// count or completion order. That property is what lets CI compare a
// sweep with a committed baseline byte for byte and treat any difference
// (which Diff lists leaf by leaf) as a real behaviour change.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"pbecc/internal/faults"
	"pbecc/internal/harness"
	"pbecc/internal/stats"
)

// Spec is the declarative sweep matrix. Every combination of the axes is
// one job; omitted axes collapse to a single default value.
type Spec struct {
	Name        string    `json:"name"`
	Experiments []string  `json:"experiments"`            // scenario family IDs (harness.Families)
	Schemes     []string  `json:"schemes"`                // congestion-control algorithms
	Seeds       []int64   `json:"seeds"`                  // engine seeds
	RATs        []string  `json:"rats,omitempty"`         // "lte"/"nr"; default ["lte"]
	Locations   []int     `json:"locations,omitempty"`    // harness.LocationGrid() indices (steady family, LTE)
	CellCounts  []int     `json:"cell_counts,omitempty"`  // 0 = family default
	NoiseLevels []float64 `json:"noise_levels,omitempty"` // capacity-noise std fractions; default [0]
	Busy        bool      `json:"busy,omitempty"`         // busy-cell variant of every scenario
	DurationMs  int       `json:"duration_ms,omitempty"`  // 0 = family default

	// FaultAxes selects structured measurement-fault axes (faults.Axes
	// vocabulary). Each listed axis expands into one job per fault level
	// alongside the always-present clean point, one axis at a time - the
	// scorecard attributes degradation per axis, so axes are never
	// combined within a job. Monitor-only axes (stale/miss/handover)
	// collapse away for schemes that never read the monitor; the onoff
	// competitor applies to every scheme.
	FaultAxes   []string  `json:"fault_axes,omitempty"`
	FaultLevels []float64 `json:"fault_levels,omitempty"` // intensities in (0, 1]; default [1]

	// Fluid converts each family's churning background population to the
	// fluid tier (harness.Params.FluidBackground). It is part of the
	// serialized spec - a fluid row measures a materially different
	// workload than a packet row - but is not a matrix axis: a spec is
	// either fluid or not. The nation family is always fluid regardless.
	Fluid bool `json:"fluid,omitempty"`

	// Shards bounds how many shards of a sharded scenario (the metro
	// family) advance concurrently inside each job. It is deliberately
	// neither a matrix axis nor part of the serialized spec: results are
	// byte-identical for every value (so sweeping it would only run
	// duplicate jobs, and keeping it out of the result file is what lets
	// CI byte-compare a -shards 1 run against a -shards 4 run). Set it
	// with pbesweep's -shards flag.
	Shards int `json:"-"`
}

// Job is one expanded cell of the matrix.
type Job struct {
	Index      int     `json:"-"`
	Experiment string  `json:"experiment"`
	RAT        string  `json:"rat"`
	Scheme     string  `json:"scheme"`
	Location   *int    `json:"location,omitempty"` // nil = the family's own placement
	Cells      int     `json:"cells,omitempty"`
	Noise      float64 `json:"noise,omitempty"`
	FaultAxis  string  `json:"fault_axis,omitempty"` // "" = clean channel
	FaultLevel float64 `json:"fault_level,omitempty"`
	Seed       int64   `json:"seed"`
}

func (j Job) params(spec *Spec) harness.Params {
	p := harness.Params{
		Seed:          j.Seed,
		Duration:      time.Duration(spec.DurationMs) * time.Millisecond,
		Cells:         j.Cells,
		RAT:           j.RAT,
		Location:      j.Location,
		Busy:          spec.Busy,
		CapacityNoise: j.Noise,
		Shards:        spec.Shards,

		FluidBackground: spec.Fluid,
	}
	if j.FaultAxis != "" {
		if err := p.Faults.Set(j.FaultAxis, j.FaultLevel); err != nil {
			// Jobs() validated every axis name before expanding.
			panic(fmt.Sprintf("sweep: job %d carries invalid fault axis: %v", j.Index, err))
		}
	}
	return p
}

// faultPoint is one cell of a scheme's fault axis: the zero value is the
// clean channel.
type faultPoint struct {
	axis  string
	level float64
}

// faultPoints expands the spec's fault axes for one scheme: always the
// clean point first, then one point per (applicable axis, level). Monitor
// faults cannot reach a scheme that never reads the monitor, so those
// axes collapse away instead of running duplicate clean jobs (the
// scorecard reuses the clean point for them).
func (s *Spec) faultPoints(scheme string) []faultPoint {
	points := []faultPoint{{}}
	levels := s.FaultLevels
	if len(levels) == 0 {
		levels = []float64{1}
	}
	for _, ax := range s.FaultAxes {
		if faults.MonitorAxis(ax) && !harness.SchemeUsesMonitor(scheme) {
			continue
		}
		for _, lv := range levels {
			points = append(points, faultPoint{ax, lv})
		}
	}
	return points
}

// Jobs expands the matrix in a fixed documented order (experiment, RAT,
// scheme, location, cells, noise, fault point, seed - outermost to
// innermost) and validates every distinct combination against the harness
// registry before any job runs. Schemes that do not consume the monitor's
// capacity feed ignore measurement noise and monitor-fault axes, so for
// them those axes collapse to their clean points instead of running
// duplicate jobs.
func (s *Spec) Jobs() ([]Job, error) {
	if len(s.Experiments) == 0 || len(s.Schemes) == 0 || len(s.Seeds) == 0 {
		return nil, fmt.Errorf("sweep spec needs experiments, schemes and seeds (got %d/%d/%d)",
			len(s.Experiments), len(s.Schemes), len(s.Seeds))
	}
	for _, seed := range s.Seeds {
		if seed == 0 {
			return nil, fmt.Errorf("seed 0 is reserved for family defaults; use any non-zero seed")
		}
	}
	if err := errors.Join(
		repeated("experiments", s.Experiments),
		repeated("schemes", s.Schemes),
		repeated("seeds", s.Seeds),
		repeated("rats", s.RATs),
		repeated("locations", s.Locations),
		repeated("cell_counts", s.CellCounts),
		repeated("noise_levels", s.NoiseLevels),
		repeated("fault_axes", s.FaultAxes),
		repeated("fault_levels", s.FaultLevels),
	); err != nil {
		return nil, err
	}
	for _, ax := range s.FaultAxes {
		if err := new(faults.Spec).Set(ax, 0); err != nil {
			return nil, err
		}
	}
	for _, lv := range s.FaultLevels {
		if lv <= 0 || lv > 1 {
			return nil, fmt.Errorf("fault level %v outside (0, 1] (zero is the implicit clean point)", lv)
		}
	}
	for _, lv := range s.NoiseLevels {
		if lv < 0 {
			return nil, fmt.Errorf("noise level %v is negative", lv)
		}
	}
	rats := s.RATs
	if len(rats) == 0 {
		rats = []string{harness.RATLTE}
	}
	cellCounts := s.CellCounts
	if len(cellCounts) == 0 {
		cellCounts = []int{0}
	}
	noises := s.NoiseLevels
	if len(noises) == 0 {
		noises = []float64{0}
	}
	locations := []*int{nil}
	if len(s.Locations) > 0 {
		locations = make([]*int, len(s.Locations))
		for i := range s.Locations {
			locations[i] = &s.Locations[i]
		}
	}
	var jobs []Job
	for _, exp := range s.Experiments {
		for _, rat := range rats {
			for _, scheme := range s.Schemes {
				noiseAxis := noises
				if !harness.SchemeUsesMonitor(scheme) {
					noiseAxis = []float64{0}
				}
				faultAxis := s.faultPoints(scheme)
				for _, loc := range locations {
					for _, cells := range cellCounts {
						// Validity depends only on the axes so far, not on
						// noise, fault point or seed: build the first job of
						// each combination once.
						first := Job{Index: len(jobs), Experiment: exp, RAT: rat, Scheme: scheme,
							Location: loc, Cells: cells, Noise: noiseAxis[0], Seed: s.Seeds[0]}
						if _, err := harness.BuildScenario(exp, scheme, first.params(s)); err != nil {
							return nil, fmt.Errorf("job %d: %w", first.Index, err)
						}
						for _, noise := range noiseAxis {
							for _, fp := range faultAxis {
								for _, seed := range s.Seeds {
									jobs = append(jobs, Job{Index: len(jobs), Experiment: exp, RAT: rat,
										Scheme: scheme, Location: loc, Cells: cells, Noise: noise,
										FaultAxis: fp.axis, FaultLevel: fp.level, Seed: seed})
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// repeated errors if an axis lists a value twice: the matrix would run
// identical jobs and its summaries would count each sample twice.
func repeated[T comparable](axis string, vals []T) error {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("%s lists %v twice (it would run identical jobs)", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// Row is one job's key and measured result. Metrics are rounded to two
// decimals so result files stay stable and diffable.
type Row struct {
	Job

	TputMbps    float64 `json:"tput_mbps"`
	DelayP50Ms  float64 `json:"delay_p50_ms"`
	DelayP95Ms  float64 `json:"delay_p95_ms"`
	Utilization float64 `json:"utilization"` // achieved / nominal peak capacity
	LossPct     float64 `json:"loss_pct"`
	CATriggered bool    `json:"ca_triggered,omitempty"`

	// Frame-level QoE metrics, present for media jobs (the rtc and sfu
	// families): released-frame count, p50/p95 capture-to-play delay,
	// accumulated freeze time, and the share of frames that missed their
	// deadline or never played.
	Frames       int     `json:"frames,omitempty"`
	FrameP50Ms   float64 `json:"frame_p50_ms,omitempty"`
	FrameP95Ms   float64 `json:"frame_p95_ms,omitempty"`
	FreezeMs     float64 `json:"freeze_ms,omitempty"`
	LateFramePct float64 `json:"late_frame_pct,omitempty"`

	// PBEErrPct is the measured flow's mean absolute capacity-estimation
	// error versus the harness's fault- and noise-free oracle monitor, in
	// percent (monitor-consuming schemes only; see
	// harness.FlowResult.PBEErrPct).
	PBEErrPct float64 `json:"pbe_err_pct,omitempty"`

	// Trajectory analytics (see analytics.go), derived from the job's
	// recorded series. ConvMs, TrackLagMs and RecoverMs carry -1 when
	// undefined (media measured flows have no cc sender pump; RecoverMs
	// needs a fault axis and a measurable pre-fault baseline) - a zero
	// would be a real, excellent score, so absence must be explicit.
	// EstAUC appears for monitor-consuming schemes only.
	ConvMs     float64 `json:"conv_ms"`
	TrackLagMs float64 `json:"track_lag_ms"`
	RecoverMs  float64 `json:"recover_ms"`
	EstAUC     float64 `json:"est_err_auc,omitempty"`

	// Fluid-tier accounting, present when the job ran a fluid background
	// population: its size and mean offered load (Mbit/s).
	FluidSessions    int     `json:"fluid_sessions,omitempty"`
	FluidOfferedMbps float64 `json:"fluid_offered_mbps,omitempty"`
}

// Metric is the distribution of one metric across a summary group's jobs.
type Metric struct {
	Mean float64 `json:"mean"`
	P10  float64 `json:"p10"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
}

func metricOf(s *stats.Series) Metric {
	return Metric{
		Mean: stats.Round2(s.Mean()),
		P10:  stats.Round2(s.Percentile(10)),
		P50:  stats.Round2(s.Percentile(50)),
		P90:  stats.Round2(s.Percentile(90)),
	}
}

// Summary aggregates every row of one (experiment, RAT, scheme, fault
// point) group: the unit the CI regression gate tracks. Clean and faulted
// rows summarize separately - mixing them would let a fault-axis change
// masquerade as (or mask) a clean-path regression.
type Summary struct {
	Experiment  string  `json:"experiment"`
	RAT         string  `json:"rat"`
	Scheme      string  `json:"scheme"`
	FaultAxis   string  `json:"fault_axis,omitempty"`
	FaultLevel  float64 `json:"fault_level,omitempty"`
	Jobs        int     `json:"jobs"`
	Tput        Metric  `json:"tput_mbps"`
	DelayP95    Metric  `json:"delay_p95_ms"`
	Utilization Metric  `json:"utilization"`

	// Frame holds the frame-level distributions for media groups (nil
	// for bulk groups).
	Frame *FrameSummary `json:"frame,omitempty"`

	// PBEErr holds the capacity-estimation-error distribution for
	// monitor-consuming groups (nil for every other scheme). Presence is
	// keyed on the scheme, not on the data, so it is deterministic across
	// runs.
	PBEErr *Metric `json:"pbe_err_pct,omitempty"`

	// Conv/TrackLag hold the trajectory distributions for groups whose
	// measured flow has a rate trajectory (bulk flows; nil for media
	// groups, whose rows carry the -1 sentinel). Recover appears for
	// fault groups with measurable recovery episodes.
	Conv     *Metric `json:"conv_ms,omitempty"`
	TrackLag *Metric `json:"track_lag_ms,omitempty"`
	Recover  *Metric `json:"recover_ms,omitempty"`
}

// FrameSummary is the frame-level half of a media group's summary.
type FrameSummary struct {
	P95Ms    Metric `json:"p95_ms"`    // per-job p95 capture-to-play delay
	FreezeMs Metric `json:"freeze_ms"` // per-job accumulated freeze time
	LatePct  Metric `json:"late_pct"`  // per-job late/lost frame share
}

// Key identifies a summary group across result files.
func (s *Summary) Key() string {
	k := s.Experiment + "/" + s.RAT + "/" + s.Scheme
	if s.FaultAxis != "" {
		k += fmt.Sprintf("/%s@%v", s.FaultAxis, s.FaultLevel)
	}
	return k
}

// Result is a completed sweep: the spec it ran, one row per job in
// expansion order, and the per-group summaries.
type Result struct {
	Spec      Spec      `json:"spec"`
	Rows      []Row     `json:"rows"`
	Summaries []Summary `json:"summaries"`
}

// Run expands the spec and executes every job across at most workers
// goroutines (default GOMAXPROCS). Rows land at their job's index, so the
// result is identical for any worker count.
func Run(spec *Spec, workers int) (*Result, error) {
	return RunProgress(spec, workers, nil)
}

// RunProgress is Run with a completion callback (see Map).
func RunProgress(spec *Spec, workers int, progress func(done, total int)) (*Result, error) {
	// Rows always record series: they are byte-identical with the series
	// layer on or off (the determinism tests pin this), so keeping it on
	// means the trajectory fields exist for every row and the -obs
	// determinism gate still holds.
	rows, err := Map(spec, workers, true, progress, rowOf)
	if err != nil {
		return nil, err
	}
	return &Result{Spec: *spec, Rows: rows, Summaries: Summarize(rows)}, nil
}

// Map is how a sweep runs its jobs: Jobs() on the scenario pool (Pool).
// series records each job's virtual-time series (harness.Result.Series).
// measure reads each job's scenario and result before the arena reclaims
// the result, and keeps no reference into it; its value lands at the job's
// index, so the output is identical for any worker count.
func Map[T any](spec *Spec, workers int, series bool, progress func(done, total int),
	measure func(Job, *harness.Scenario, *harness.Result) T) ([]T, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	return Pool(len(jobs), workers, progress,
		func(i int) *harness.Scenario { return jobs[i].scenario(spec, series) },
		func(i int, sc *harness.Scenario, res *harness.Result) T { return measure(jobs[i], sc, res) }), nil
}

// scenario builds the job's scenario.
func (j Job) scenario(spec *Spec, series bool) *harness.Scenario {
	sc, err := harness.BuildScenario(j.Experiment, j.Scheme, j.params(spec))
	if err != nil {
		// Jobs() validated this combination already.
		panic(fmt.Sprintf("sweep: job %d became unbuildable: %v", j.Index, err))
	}
	sc.Series = series
	return sc
}

// Pool runs n scenarios across at most workers goroutines (default
// GOMAXPROCS), each with its own harness.Arena, so a scenario runs on the
// storage the worker's previous one grew. A worker builds scenario i with
// build(i), runs it, and reads it with measure(i, sc, res) before the arena
// reclaims the result; measure must read everything it needs then (the
// arena reuses each flow's delay samples) and keep no reference into the
// result. Its value lands at index i, so the output is identical for any
// worker count. progress(done, total), if non-nil, is invoked once per
// finished scenario, from worker goroutines but never concurrently, with
// done strictly increasing; it cannot affect the output.
func Pool[T any](n, workers int, progress func(done, total int), build func(i int) *harness.Scenario,
	measure func(i int, sc *harness.Scenario, res *harness.Result) T) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	out := make([]T, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := harness.NewArena()
			for i := range idx {
				out[i] = runOn(arena, i, build, measure)
				if progress != nil {
					mu.Lock()
					done++
					progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// runOn runs scenario i on the worker's arena and returns what measure
// reads of it before the result goes back to the arena.
func runOn[T any](arena *harness.Arena, i int, build func(int) *harness.Scenario,
	measure func(int, *harness.Scenario, *harness.Result) T) T {
	sc := build(i)
	res := arena.Run(sc)
	v := measure(i, sc, res)
	arena.Reclaim(res)
	return v
}

// rowOf measures a job's first flow, which every scenario family reserves
// for the scheme under test.
func rowOf(j Job, sc *harness.Scenario, res *harness.Result) Row {
	f := res.Flows[0]
	row := Row{
		Job:         j,
		TputMbps:    stats.Round2(f.AvgTputMbps),
		DelayP50Ms:  stats.Round2(f.Delay.Percentile(50)),
		DelayP95Ms:  stats.Round2(f.Delay.Percentile(95)),
		CATriggered: res.CATriggered,
	}
	if nominal := sc.NominalCapacityMbps(); nominal > 0 {
		row.Utilization = stats.Round2(f.AvgTputMbps / nominal)
	}
	if total := f.Received + f.Lost; total > 0 {
		row.LossPct = stats.Round2(100 * float64(f.Lost) / float64(total))
	}
	if fr := f.Frames; fr != nil {
		row.Frames = int(fr.Released)
		row.FrameP50Ms = stats.Round2(fr.Delay.Percentile(50))
		row.FrameP95Ms = stats.Round2(fr.Delay.Percentile(95))
		row.FreezeMs = stats.Round2(float64(fr.FreezeTime.Microseconds()) / 1000)
		row.LateFramePct = stats.Round2(fr.LatePct())
	}
	if harness.SchemeUsesMonitor(j.Scheme) {
		row.PBEErrPct = stats.Round2(f.PBEErrPct)
	}
	if res.Fluid != nil {
		row.FluidSessions = res.Fluid.Sessions
		row.FluidOfferedMbps = stats.Round2(res.Fluid.OfferedMbps(sc.Duration))
	}
	traj := BuildTrajectory(res.Series, sc.Flows[0].ID, sc.Flows[0].UE)
	row.ConvMs = stats.Round2(traj.ConvergenceMs())
	row.TrackLagMs = stats.Round2(traj.TrackingLagMs())
	row.RecoverMs = -1
	if j.FaultAxis != "" {
		if rec := traj.RecoverMs(); rec >= 0 {
			row.RecoverMs = stats.Round2(rec)
		}
	}
	if harness.SchemeUsesMonitor(j.Scheme) {
		if auc := traj.EstErrAUC(); auc >= 0 {
			row.EstAUC = stats.Round2(auc)
		}
	}
	return row
}

// Summarize groups rows by (experiment, RAT, scheme, fault point) and
// computes each group's metric distributions, sorted by group key.
func Summarize(rows []Row) []Summary {
	type acc struct {
		tput, p95, util        stats.Series
		frameP95, freeze, late stats.Series
		pbeErr                 stats.Series
		conv, lag, recover     stats.Series
		jobs                   int
		media                  bool
	}
	groups := map[string]*acc{}
	meta := map[string]Summary{}
	for _, r := range rows {
		s := Summary{Experiment: r.Experiment, RAT: r.RAT, Scheme: r.Scheme,
			FaultAxis: r.FaultAxis, FaultLevel: r.FaultLevel}
		k := s.Key()
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
			meta[k] = s
		}
		a.jobs++
		a.tput.Add(r.TputMbps)
		a.p95.Add(r.DelayP95Ms)
		a.util.Add(r.Utilization)
		// A media row always has Frames > 0 or (having played nothing)
		// LateFramePct = 100; bulk rows have both at zero. Delay and
		// freeze distributions take only rows that released frames - a
		// collapsed job's zeros are not good scores and must not drag
		// the gate-tracked p95 down - while the late share counts every
		// media job, so the collapse itself registers as 100% late.
		if r.Frames > 0 || r.LateFramePct > 0 {
			a.media = true
			a.late.Add(r.LateFramePct)
		}
		if r.Frames > 0 {
			a.frameP95.Add(r.FrameP95Ms)
			a.freeze.Add(r.FreezeMs)
		}
		if harness.SchemeUsesMonitor(r.Scheme) {
			a.pbeErr.Add(r.PBEErrPct)
		}
		// Trajectory metrics aggregate only defined rows (-1 is the
		// "no rate trajectory" sentinel); which rows are defined is a
		// pure function of the spec, so presence stays deterministic.
		if r.ConvMs >= 0 {
			a.conv.Add(r.ConvMs)
		}
		if r.TrackLagMs >= 0 {
			a.lag.Add(r.TrackLagMs)
		}
		if r.RecoverMs >= 0 {
			a.recover.Add(r.RecoverMs)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Summary, 0, len(keys))
	for _, k := range keys {
		a := groups[k]
		s := meta[k]
		s.Jobs = a.jobs
		s.Tput = metricOf(&a.tput)
		s.DelayP95 = metricOf(&a.p95)
		s.Utilization = metricOf(&a.util)
		if a.media {
			s.Frame = &FrameSummary{
				P95Ms:    metricOf(&a.frameP95),
				FreezeMs: metricOf(&a.freeze),
				LatePct:  metricOf(&a.late),
			}
		}
		if harness.SchemeUsesMonitor(s.Scheme) {
			m := metricOf(&a.pbeErr)
			s.PBEErr = &m
		}
		if a.conv.Len() > 0 {
			m := metricOf(&a.conv)
			s.Conv = &m
		}
		if a.lag.Len() > 0 {
			m := metricOf(&a.lag)
			s.TrackLag = &m
		}
		if a.recover.Len() > 0 {
			m := metricOf(&a.recover)
			s.Recover = &m
		}
		out = append(out, s)
	}
	return out
}

// Smoke returns the built-in CI smoke sweep: small enough for a PR gate,
// wide enough to cross every axis (three algorithms including the GCC
// real-time baseline, five families including the frame-level rtc call
// and the 32-subscriber SFU fan-out, four seeds, both RATs, one noisy
// level).
func Smoke() *Spec {
	return &Spec{
		Name:        "smoke",
		Experiments: []string{"steady", "competition", "multiflow", "rtc", "sfu"},
		Schemes:     []string{"pbe", "bbr", "gcc"},
		Seeds:       []int64{1, 2, 3, 4},
		RATs:        []string{harness.RATLTE, harness.RATNR},
		NoiseLevels: []float64{0, 0.1},
		DurationMs:  1000,
	}
}

// TrajSmoke returns the trajectory CI slice: every scheme, both RATs, on
// the steady step scenario (the flow start is the capacity step), two
// seconds per job - long enough that slow-start ramps and tracking lags
// land well inside the run. Its baseline commits the paper's qualitative
// convergence ranking: pbe and pbertc reach capacity faster than the
// end-to-end schemes, and the diff gate fails CI if that ordering decays
// into a regression.
func TrajSmoke() *Spec {
	return &Spec{
		Name:        "traj",
		Experiments: []string{"steady"},
		Schemes:     append([]string(nil), harness.Schemes...),
		Seeds:       []int64{1, 2},
		RATs:        []string{harness.RATLTE, harness.RATNR},
		DurationMs:  2000,
	}
}

// MetroSmoke returns the city-scale CI slice: a cut-down metro (8 cells,
// 128 UEs, half a second) small enough to run twice per PR, wide enough
// to cross both RATs and the sharded engine's cross-shard SFU path. CI
// runs it at -shards 1 and -shards 4 and byte-compares, then diffs the
// -shards 4 result against the committed BENCH_metro_baseline.json.
func MetroSmoke() *Spec {
	return &Spec{
		Name:        "metro-smoke",
		Experiments: []string{"metro"},
		Schemes:     []string{"pbe", "gcc"},
		Seeds:       []int64{1, 2},
		RATs:        []string{harness.RATLTE, harness.RATNR},
		CellCounts:  []int{8},
		DurationMs:  500,
	}
}

// NationSmoke returns the nation-scale CI slice: a 4-cell packet
// foreground over the full 65536-cell / 1M-user fluid-modeled tier, a
// quarter second per job. CI runs it at -shards 1 and -shards 8 and
// byte-compares (shard-width determinism over the fluid chunk
// partition), then diffs against the committed BENCH_nation_baseline.json.
func NationSmoke() *Spec {
	return &Spec{
		Name:        "nation-smoke",
		Experiments: []string{"nation"},
		Schemes:     []string{"pbe", "gcc"},
		Seeds:       []int64{1},
		RATs:        []string{harness.RATLTE, harness.RATNR},
		CellCounts:  []int{4},
		DurationMs:  250,
	}
}

// Builtins returns the built-in specs that pbesweep -spec runs by name.
// Their names are serialized into the committed baselines.
func Builtins() []*Spec {
	return []*Spec{Smoke(), MetroSmoke(), NationSmoke(), TrajSmoke(), ScorecardSpec()}
}
