package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// P2 is the Jain & Chlamtac P-squared streaming estimator for a single
// quantile: five markers track the running quantile with O(1) memory and
// O(1) work per sample, against the O(samples) cost of keeping the full
// series. Metro-scale runs record millions of per-packet delays per flow;
// P2 keeps per-flow statistics at constant size.
type P2 struct {
	p     float64    // target quantile in (0, 1)
	n     int        // observations so far
	q     [5]float64 // marker heights
	pos   [5]float64 // actual marker positions (1-based)
	want  [5]float64 // desired marker positions
	delta [5]float64 // desired position increments per observation
}

// NewP2 returns an estimator for quantile p in (0, 1).
func NewP2(p float64) *P2 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile %v outside (0,1)", p))
	}
	e := &P2{p: p}
	e.pos = [5]float64{1, 2, 3, 4, 5}
	e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.delta = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add feeds one observation.
func (e *P2) Add(v float64) {
	if e.n < 5 {
		e.q[e.n] = v
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
		}
		return
	}
	e.n++

	// Find the cell the observation falls into and stretch the extreme
	// markers when it lies outside the current range.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.delta[i]
	}

	// Adjust the three interior markers toward their desired positions,
	// by parabolic interpolation when it keeps the heights ordered,
	// linearly otherwise.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qp := e.parabolic(i, s)
			if e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *P2) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it answers exactly from the buffered samples.
func (e *P2) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		buf := make([]float64, e.n)
		copy(buf, e.q[:e.n])
		sort.Float64s(buf)
		idx := int(math.Ceil(e.p*float64(e.n))) - 1
		if idx < 0 {
			idx = 0
		}
		return buf[idx]
	}
	return e.q[2]
}

// P2Digest bundles P2 estimators for digestQuantiles plus exact running
// mean/min/max/count, presenting the same query surface as a Series at
// O(1) memory. It is the streaming backend behind per-flow percentiles in
// metro-scale runs.
type P2Digest struct {
	ests [len(digestQuantiles)]*P2
	n    int
	sum  float64
	min  float64
	max  float64
}

// digestQuantiles are the quantiles a P2Digest tracks: the median and
// 95th-percentile delay that sweep rows and reports read.
var digestQuantiles = [...]float64{0.50, 0.95}

// NewP2Digest returns an empty digest.
func NewP2Digest() *P2Digest {
	d := &P2Digest{}
	for i, q := range digestQuantiles {
		d.ests[i] = NewP2(q)
	}
	return d
}

// Add feeds one observation to every tracked quantile.
func (d *P2Digest) Add(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
	for _, e := range d.ests {
		e.Add(v)
	}
}

// Len returns the number of observations.
func (d *P2Digest) Len() int { return d.n }

// Mean returns the exact running mean (0 when empty).
func (d *P2Digest) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the exact minimum (0 when empty).
func (d *P2Digest) Min() float64 { return d.min }

// Max returns the exact maximum (0 when empty).
func (d *P2Digest) Max() float64 { return d.max }

// Percentile answers with the estimator of the nearest tracked quantile
// (percentiles at or beyond the extremes answer exactly from min/max).
// Asking for an untracked interior percentile is a programming error in
// deterministic pipelines, so the tolerance is strict: the nearest target
// must be within 2.5 percentage points.
func (d *P2Digest) Percentile(p float64) float64 {
	if p <= 0 {
		return d.Min()
	}
	if p >= 100 {
		return d.Max()
	}
	q := p / 100
	best := -1
	for i, t := range digestQuantiles {
		if best < 0 || math.Abs(t-q) < math.Abs(digestQuantiles[best]-q) {
			best = i
		}
	}
	if math.Abs(digestQuantiles[best]-q) > 0.025 {
		panic(fmt.Sprintf("stats: percentile %.4g not tracked by digest %v", p, digestQuantiles))
	}
	return d.ests[best].Value()
}

// DurationP2 adapts a P2Digest to duration samples recorded in
// milliseconds, mirroring DurationSeries over Series.
type DurationP2 struct{ P2Digest }

// NewDurationP2 returns an empty streaming duration digest.
func NewDurationP2() *DurationP2 {
	return &DurationP2{P2Digest: *NewP2Digest()}
}

// AddDuration appends a delay sample converted to milliseconds.
func (d *DurationP2) AddDuration(v time.Duration) {
	d.Add(float64(v) / float64(time.Millisecond))
}
