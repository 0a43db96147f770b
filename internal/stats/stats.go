// Package stats provides the statistics the paper's evaluation reports:
// order statistics (10th/25th/50th/75th/90th/95th percentiles) of
// throughput and delay measured over 100-millisecond windows, CDFs across
// locations, and Jain's fairness index.
package stats

import (
	"math"
	"sort"
	"time"
)

// Dist is the query surface shared by the exact Series and the streaming
// P2Digest, so consumers (sweep rows, experiment tables) need not know
// whether a flow recorded every sample or a constant-size digest.
type Dist interface {
	Percentile(p float64) float64
	Mean() float64
	Len() int
	Max() float64
}

// DelayDist is a Dist that records delay samples natively in
// time.Duration. DurationSeries is the exact implementation, DurationP2
// the O(1)-memory streaming one used by metro-scale runs.
type DelayDist interface {
	Dist
	AddDuration(v time.Duration)
}

// Series accumulates samples and answers percentile queries.
type Series struct {
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (s *Series) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Reset empties the series but keeps its backing array, so a series
// reused for a run like the last one appends without growing.
func (s *Series) Reset() { s.vals, s.sorted = s.vals[:0], false }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics; 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	pos := p / 100 * float64(len(s.vals)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.vals) {
		return s.vals[i]
	}
	d := s.vals[i+1] - s.vals[i]
	if math.IsInf(d, 0) {
		// The difference overflowed (values near +-MaxFloat64 of opposite
		// sign); interpolate in the weighted form, which stays finite.
		return s.vals[i]*(1-frac) + s.vals[i+1]*frac
	}
	return s.vals[i] + frac*d
}

// Min returns the smallest sample (0 for an empty series).
func (s *Series) Min() float64 { return s.Percentile(0) }

// Max returns the largest sample (0 for an empty series).
func (s *Series) Max() float64 { return s.Percentile(100) }

// Windowed accumulates byte arrivals into fixed-duration windows, the
// 100 ms granularity of the paper's throughput order statistics.
type Windowed struct {
	Window  time.Duration
	buckets []float64 // bytes per window
}

// NewWindowed returns an accumulator with the given window (100 ms if
// zero). The windows of arrivals up to until (none if until is 0) are
// allocated up front; a later arrival grows them.
func NewWindowed(window, until time.Duration) *Windowed {
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	w := &Windowed{Window: window}
	if until > 0 {
		w.buckets = make([]float64, 0, int(until/window)+1)
	}
	return w
}

// Add records bytes arriving at virtual time at.
func (w *Windowed) Add(at time.Duration, bytes int) {
	i := int(at / w.Window)
	for len(w.buckets) <= i {
		w.buckets = append(w.buckets, 0)
	}
	w.buckets[i] += float64(bytes)
}

// RatesMbps converts the windows observed so far into Mbit/s samples.
// Windows before from or after to are excluded; pass 0,0 for all.
func (w *Windowed) RatesMbps(from, to time.Duration) *Series {
	s := &Series{vals: make([]float64, 0, len(w.buckets))}
	for i, b := range w.buckets {
		t := time.Duration(i) * w.Window
		if t < from || (to > 0 && t >= to) {
			continue
		}
		s.Add(b * 8 / w.Window.Seconds() / 1e6)
	}
	return s
}

// Buckets returns the raw per-window byte counts.
func (w *Windowed) Buckets() []float64 { return w.buckets }

// Jain computes Jain's fairness index: (sum x)^2 / (n * sum x^2).
// It is 1.0 for a perfectly equal allocation and 1/n in the worst case;
// 0 is returned for empty or all-zero input.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// DurationSeries adapts delay samples in time.Duration to a Series in
// milliseconds.
type DurationSeries struct{ Series }

// AddDuration appends a delay sample converted to milliseconds.
func (d *DurationSeries) AddDuration(v time.Duration) {
	d.Add(float64(v) / float64(time.Millisecond))
}

// Round2 rounds to two decimals, for stable report output.
func Round2(v float64) float64 { return math.Round(v*100) / 100 }
