// Package verus implements Verus congestion control (Zaki et al., SIGCOMM
// 2015) from its published description: the sender learns a delay profile
// (a mapping from congestion window to expected end-to-end delay), tracks
// the delay gradient each epoch, and chooses the next window by inverting
// the profile at a target delay that is lowered when delay rises and
// raised when the channel looks underused. Loss halves the window.
//
// The profile captures Verus's characteristic behaviour in cellular
// evaluations - high throughput bought with standing queues (the paper's
// Figures 13-14 show Verus with multi-hundred-ms delays).
package verus

import (
	"time"

	"pbecc/internal/cc"
)

const (
	mss         = 1500
	epoch       = 5 * time.Millisecond
	maxBuckets  = 4096 // window buckets of one MSS each
	deltaUp     = 1.0  // target delay multiplier increment (epochs of falling delay)
	deltaDown   = 2.0  // decrement on rising delay
	ratioMin    = 2.0  // minimum target delay ratio over Dmin
	ratioMax    = 6.0  // maximum
	profileEWMA = 0.2
)

// Verus is the controller. Create with New.
type Verus struct {
	cwnd float64 // in MSS

	profile [maxBuckets]float64 // expected delay (ms) per window bucket

	dMinMs     float64
	lastDelay  float64
	epochEnd   time.Duration
	epochDelay float64
	epochAcks  int
	ratio      float64 // current target delay ratio over dMin

	srtt time.Duration
}

// New returns a Verus controller.
func New() *Verus {
	return &Verus{cwnd: float64(cc.InitialCwnd) / mss, ratio: ratioMax}
}

// OnSent implements cc.Controller.
func (v *Verus) OnSent(now time.Duration, seq uint64, inflight int) {}

// OnAck implements cc.Controller.
func (v *Verus) OnAck(s cc.AckSample) {
	v.srtt = s.SRTT
	d := float64(s.RTT) / float64(time.Millisecond)
	if v.dMinMs == 0 || d < v.dMinMs {
		v.dMinMs = d
	}
	// Update the delay profile at the current window bucket.
	b := int(v.cwnd)
	if b >= maxBuckets {
		b = maxBuckets - 1
	}
	if v.profile[b] == 0 {
		v.profile[b] = d
	} else {
		v.profile[b] = profileEWMA*d + (1-profileEWMA)*v.profile[b]
	}
	v.epochDelay += d
	v.epochAcks++

	if v.epochEnd == 0 {
		v.epochEnd = s.Now + epoch
		return
	}
	if s.Now < v.epochEnd {
		return
	}
	v.epochEnd = s.Now + epoch
	if v.epochAcks == 0 {
		return
	}
	avg := v.epochDelay / float64(v.epochAcks)
	v.epochDelay, v.epochAcks = 0, 0

	// Delay gradient steers the target delay ratio.
	if v.lastDelay > 0 {
		if avg > v.lastDelay {
			v.ratio -= deltaDown
		} else {
			v.ratio += deltaUp
		}
		if v.ratio < ratioMin {
			v.ratio = ratioMin
		}
		if v.ratio > ratioMax {
			v.ratio = ratioMax
		}
	}
	v.lastDelay = avg

	// Invert the learned profile at the target delay.
	target := v.ratio * v.dMinMs
	v.cwnd = v.invertProfile(target)
}

// invertProfile finds the largest window whose *learned* delay stays below
// the target. When everything known is below target the window may grow a
// bounded step (5% or two segments, whichever is larger) beyond the
// current window - exploration is earned by evidence, never assumed for
// unexplored buckets.
func (v *Verus) invertProfile(targetMs float64) float64 {
	known := 2.0
	for b := 2; b < maxBuckets; b++ {
		p := v.profile[b]
		if p != 0 && p <= targetMs && float64(b) > known {
			known = float64(b)
		}
	}
	grow := v.cwnd * 0.05
	if grow < 2 {
		grow = 2
	}
	if known >= v.cwnd {
		limit := v.cwnd + grow
		if known < limit {
			return known + grow
		}
		return limit
	}
	return known
}

// OnLoss implements cc.Controller: multiplicative decrease.
func (v *Verus) OnLoss(l cc.LossSample) {
	v.cwnd /= 2
	if v.cwnd < 2 {
		v.cwnd = 2
	}
}

// PacingRate implements cc.Controller: Verus spreads the window over the
// smoothed RTT.
func (v *Verus) PacingRate() float64 {
	if v.srtt <= 0 {
		return 0
	}
	return 2 * v.cwnd * mss * 8 / v.srtt.Seconds()
}

// CWND implements cc.Controller.
func (v *Verus) CWND() int { return int(v.cwnd * mss) }
