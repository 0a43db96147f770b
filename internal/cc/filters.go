package cc

import "time"

// WindowedMax tracks the maximum of a time series over a sliding window,
// as BBR's bottleneck-bandwidth filter does. Samples must arrive with
// non-decreasing timestamps.
type WindowedMax struct {
	Window  time.Duration
	samples []timedValue
}

// WindowedMin tracks the minimum over a sliding window, as BBR's RTprop
// filter does.
type WindowedMin struct {
	Window  time.Duration
	samples []timedValue
}

type timedValue struct {
	at time.Duration
	v  float64
}

// Update inserts a sample and evicts out-of-window or dominated entries.
func (w *WindowedMax) Update(at time.Duration, v float64) {
	cut := 0
	for cut < len(w.samples) && w.samples[cut].at < at-w.Window {
		cut++
	}
	w.samples = w.samples[cut:]
	for len(w.samples) > 0 && w.samples[len(w.samples)-1].v <= v {
		w.samples = w.samples[:len(w.samples)-1]
	}
	w.samples = append(w.samples, timedValue{at, v})
}

// Get returns the current windowed maximum (0 if empty).
func (w *WindowedMax) Get() float64 {
	if len(w.samples) == 0 {
		return 0
	}
	return w.samples[0].v
}

// Update inserts a sample and evicts out-of-window or dominated entries.
func (w *WindowedMin) Update(at time.Duration, v float64) {
	cut := 0
	for cut < len(w.samples) && w.samples[cut].at < at-w.Window {
		cut++
	}
	w.samples = w.samples[cut:]
	for len(w.samples) > 0 && w.samples[len(w.samples)-1].v >= v {
		w.samples = w.samples[:len(w.samples)-1]
	}
	w.samples = append(w.samples, timedValue{at, v})
}

// Get returns the current windowed minimum (0 if empty).
func (w *WindowedMin) Get() float64 {
	if len(w.samples) == 0 {
		return 0
	}
	return w.samples[0].v
}
