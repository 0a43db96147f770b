package harness

import (
	"pbecc/internal/obs"
	"pbecc/internal/sim"
	"pbecc/internal/stats"
)

// Arena is the storage one goroutine carries from scenario to scenario, so
// a run like the last one starts on the working set its predecessor grew
// instead of growing its own:
//
//   - the shard engines, with their heap and event arena and the
//     engine-local packet pool, sender rings and link queues (see
//     sim.Engine.Recycle);
//   - the series recorder, its shard rings and its merged points;
//   - the flows' per-packet delay-sample arrays.
//
// Reuse changes only where memory comes from. Every recycled container
// starts logically empty (a ring may be larger than a fresh one), every
// engine restarts at time zero and sequence zero with a freshly seeded
// random source, and packets still held when a run ends are taken back
// with their generation bumped. Results are therefore byte-identical to a
// run on fresh storage, whatever ran on the arena before.
//
// An arena keeps at most the last run's working set: storage that run did
// not use is dropped at hand-back. It is not safe for concurrent use; give
// each worker goroutine its own.
type Arena struct {
	engines []*sim.Engine
	series  *obs.SeriesRecorder
	delays  []*stats.DurationSeries
	next    int // delays[next:] are still unclaimed by the current run
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Run executes the scenario with storage from the arena. The result is
// valid until it is handed back with Reclaim.
func (a *Arena) Run(sc *Scenario) *Result { return run(sc, a) }

// Reclaim hands a result's storage back to the arena for the next run and
// clears the result: nothing may read it, or anything it pointed to,
// afterwards. Read percentiles, frame statistics and series first.
func (a *Arena) Reclaim(res *Result) {
	a.engines = a.engines[:0]
	for _, s := range res.cluster.Shards() {
		s.Engine.Recycle()
		a.engines = append(a.engines, s.Engine)
	}
	a.series = res.Series
	clear(a.delays)
	a.delays, a.next = a.delays[:0], 0
	for _, f := range res.Flows {
		if d, ok := f.Delay.(*stats.DurationSeries); ok {
			a.delays = append(a.delays, d)
		}
	}
	*res = Result{}
}

// cluster returns a cluster for the scenario's seed that recycles the
// arena's engines before constructing new ones.
func (a *Arena) cluster(seed int64) *sim.Cluster {
	cl := sim.NewCluster(seed)
	cl.Reuse(a.engines)
	a.engines = nil
	return cl
}

// seriesRecorder returns the arena's recorder, reset, or a new one.
func (a *Arena) seriesRecorder() *obs.SeriesRecorder {
	r := a.series
	if r == nil {
		return obs.NewSeriesRecorder()
	}
	a.series = nil
	r.Reset()
	return r
}

// delaySeries returns an empty exact delay series, on the backing array of
// the previous run's flow in the same position when there is one.
func (a *Arena) delaySeries() *stats.DurationSeries {
	if a.next == len(a.delays) {
		return &stats.DurationSeries{}
	}
	d := a.delays[a.next]
	a.delays[a.next] = nil
	a.next++
	d.Reset()
	return d
}
