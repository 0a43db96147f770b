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
// each candidate better than every later one. It is a power-of-two ring
// (the candidates at ring[(head+i)&(len-1)] for i < n) that doubles when
// full and is never shrunk, so expiring or dominated candidates free
// their slots in place and the ring stops growing once it spans the
// longest candidate list.
type monoQueue struct {
	ring    []timedValue
	head, n int
}

// monoQueueInitial is the ring's first size.
const monoQueueInitial = 16

// push evicts the candidates older than at-window, then the newest
// candidates that are no better than v (no larger for a maximum, no
// smaller for a minimum), and appends v.
func (q *monoQueue) push(at, window time.Duration, v float64, isMax bool) {
	mask := len(q.ring) - 1
	for q.n > 0 && q.ring[q.head].at < at-window {
		q.head = (q.head + 1) & mask
		q.n--
	}
	for q.n > 0 {
		if old := q.ring[(q.head+q.n-1)&mask].v; !(isMax && old <= v || !isMax && old >= v) {
			break
		}
		q.n--
	}
	if q.n == len(q.ring) {
		grown := make([]timedValue, max(monoQueueInitial, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)&mask]
		}
		q.ring, q.head, mask = grown, 0, len(grown)-1
	}
	q.ring[(q.head+q.n)&mask] = timedValue{at, v}
	q.n++
}

// best returns the window's extremum (0 if empty).
func (q *monoQueue) best() float64 {
	if q.n == 0 {
		return 0
	}
	return q.ring[q.head].v
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
func (w *WindowedMax) TakeRing(eng *sim.Engine) {
	rings := sim.StockOf[timedValue](eng, filterKey)
	w.q.ring = rings.Take()
	rings.Keep(&w.q.ring)
}
