package cc

import (
	"time"

	"pbecc/internal/sim"
)

// WindowedMax tracks the maximum of a time series over a sliding window,
// as BBR's bottleneck-bandwidth filter does. Samples must arrive with
// non-decreasing timestamps.
type WindowedMax struct {
	Window time.Duration
	q      monoQueue
}

// WindowedMin tracks the minimum over a sliding window, as BBR's RTprop
// filter does.
type WindowedMin struct {
	Window time.Duration
	q      monoQueue
}

type timedValue struct {
	at time.Duration
	v  float64
}

// monoQueue is the candidate list of a windowed extremum, oldest first,
// each candidate better than every later one.
type monoQueue struct{ sim.Ring[timedValue] }

// push evicts the candidates older than at-window, then the newest
// candidates that are no better than v (no larger for a maximum, no
// smaller for a minimum), and appends v.
func (q *monoQueue) push(at, window time.Duration, v float64, isMax bool) {
	for q.Len() > 0 && q.Front().at < at-window {
		q.PopFront()
	}
	for q.Len() > 0 {
		if old := q.At(q.Len() - 1).v; !(isMax && old <= v || !isMax && old >= v) {
			break
		}
		q.PopBack()
	}
	q.PushBack(timedValue{at, v})
}

// best returns the window's extremum (0 if empty).
func (q *monoQueue) best() float64 {
	if q.Len() == 0 {
		return 0
	}
	return q.Front().v
}

// Update inserts a sample and evicts out-of-window or dominated entries.
func (w *WindowedMax) Update(at time.Duration, v float64) { w.q.push(at, w.Window, v, true) }

// Get returns the current windowed maximum (0 if empty).
func (w *WindowedMax) Get() float64 { return w.q.best() }

// Update inserts a sample and evicts out-of-window or dominated entries.
func (w *WindowedMin) Update(at time.Duration, v float64) { w.q.push(at, w.Window, v, false) }

// Get returns the current windowed minimum (0 if empty).
func (w *WindowedMin) Get() float64 { return w.q.best() }

// filterKey is the engine-local stock of windowed-filter rings.
var filterKey = sim.NewLocalKey()

// TakeRing gives the filter the ring that a filter of the previous run on
// the recycled engine eng grew, and registers it for the next run. Call
// it before the first Update.
func (w *WindowedMax) TakeRing(eng *sim.Engine) { w.q.FromStock(eng, filterKey) }
