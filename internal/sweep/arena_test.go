package sweep

import (
	"runtime"
	"testing"

	"pbecc/internal/harness"
)

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
		fwd[i] = runJob(spec, j, arena, true, rowOf)
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
		if got := runJob(spec, jobs[i], arena, true, rowOf); got != fwd[i] {
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
		row := runJob(spec, job, arena, true, rowOf)
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
