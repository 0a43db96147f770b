package sweep

import (
	"runtime"
	"testing"

	"pbecc/internal/harness"
)

// runJob runs one job on arena the way a pool worker does and returns its
// row.
func runJob(spec *Spec, j Job, arena *harness.Arena) Row {
	return runOn(arena, j.Index, func(int) *harness.Scenario { return j.scenario(spec, true) },
		func(_ int, sc *harness.Scenario, res *harness.Result) Row { return rowOf(j, sc, res) })
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// arenaRetentionCap bounds what one worker's arena keeps between smoke
// jobs: the largest smoke job's engine (event arena, packet slab, sender
// rings, link and cell queues), series storage and delay arrays. The
// 32-leg SFU fan-outs are the largest, at about 3.2 MB.
const arenaRetentionCap = 4 << 20

// TestArenaIsolation runs the 160 smoke jobs on one worker's arena
// forward, then on a fresh arena in reverse order. Reversing changes what
// every job inherits from the arena - the previous job's engine, packets,
// rings and series storage - so any state leaking between jobs shows up as
// a row difference. Between forward jobs it also pins the arena's
// retention.
func TestArenaIsolation(t *testing.T) {
	spec := Smoke()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	base := heapInUse()
	fwd := make([]Row, len(jobs))
	arena := harness.NewArena()
	var retained uint64
	for i, j := range jobs {
		fwd[i] = runJob(spec, j, arena)
		if h := heapInUse(); h > base && h-base > retained {
			retained = h - base
		}
	}
	runtime.KeepAlive(arena)
	t.Logf("arena retained at most %.2f MB between jobs", float64(retained)/(1<<20))
	if retained > arenaRetentionCap {
		t.Errorf("arena retained %d bytes between jobs, cap %d", retained, arenaRetentionCap)
	}

	arena = harness.NewArena()
	for i := len(jobs) - 1; i >= 0; i-- {
		if got := runJob(spec, jobs[i], arena); got != fwd[i] {
			t.Fatalf("job %d (%s/%s/%s seed %d) differs run in reverse order:\n forward %+v\n reverse %+v",
				i, jobs[i].Experiment, jobs[i].RAT, jobs[i].Scheme, jobs[i].Seed, fwd[i], got)
		}
	}
}

// TestArenaWarmRepeat pins what reuse saves: repeating smoke job 0
// (steady/lte/pbe) on the arena it just ran on allocates at most 30 % of
// the bytes of its first run on a fresh arena. The rest is what is still
// built per job - cells, UEs, monitors, controllers, closures - and what a
// job allocates while running (the monitor's report copies, channel
// state), which the arena does not own.
func TestArenaWarmRepeat(t *testing.T) {
	spec := Smoke()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	arena := harness.NewArena()
	bytesOf := func() (uint64, Row) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		row := runJob(spec, job, arena)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, row
	}
	first, row1 := bytesOf()
	warm, row2 := bytesOf()
	t.Logf("job 0: first run %d KB, warmed repeat %d KB (%.0f %%)", first>>10, warm>>10, 100*float64(warm)/float64(first))
	if row1 != row2 {
		t.Fatalf("warmed repeat changed the row:\n first %+v\n warm  %+v", row1, row2)
	}
	if warm*10 > first*3 {
		t.Fatalf("warmed repeat allocated %d bytes, more than 30 %% of the first run's %d", warm, first)
	}
}

// allocBudget is each smoke family's budget in allocations per extra
// simulated second of a job on a warmed arena, over both RATs and the
// three smoke schemes, pinned a few allocations above what the jobs
// achieve (at most steady 12, competition 14, multiflow 21, rtc 14, sfu
// 239 at seed 1).
// What remains is mostly the result a longer run returns - its rate
// timeline and trajectory - and, on the SFU legs, GCC's windows, which
// have no engine to inherit storage from and still grow to their size.
var allocBudget = map[string]float64{
	"steady":      16,
	"competition": 17,
	"multiflow":   28,
	"rtc":         16,
	"sfu":         270,
}

// TestJobAllocsPerSimSecond pins what a running job allocates end to end:
// for every smoke family, scheme and RAT (seed 1), on an arena warmed by
// the 2 s job, the allocations of the 2 s job minus those of the 1 s job
// must stay within the family's budget. The frame queue, the HARQ ring,
// the monitor's window and RNTI list, the cell's blocks and packet lists,
// the windowed filters and the jitter buffer's frame records all recycle
// their storage; reverting any one of them breaks a budget.
func TestJobAllocsPerSimSecond(t *testing.T) {
	spec := Smoke()
	for _, fam := range spec.Experiments {
		for _, rat := range spec.RATs {
			for _, scheme := range spec.Schemes {
				j := Job{Experiment: fam, RAT: rat, Scheme: scheme, Seed: 1}
				arena := harness.NewArena()
				run := func(ms int) func() {
					s := *spec
					s.DurationMs = ms
					return func() { runJob(&s, j, arena) }
				}
				// With AllocsPerRun's own warm-up run, the 2 s job is
				// measured after two 2 s jobs, so the stocks have settled
				// on its working set, and the 1 s job after a 1 s job.
				run(2000)()
				perSecond := testing.AllocsPerRun(1, run(2000)) - testing.AllocsPerRun(1, run(1000))
				t.Logf("%s/%s/%s: %.0f allocs per extra simulated second", fam, rat, scheme, perSecond)
				if budget := allocBudget[fam]; perSecond > budget {
					t.Errorf("%s/%s/%s allocates %.0f times per extra simulated second, budget %.0f",
						fam, rat, scheme, perSecond, budget)
				}
			}
		}
	}
}
