// Package sprout implements a Sprout-style forecast controller (Winstein,
// Sivaraman, Balakrishnan, NSDI 2013). Sprout models the cellular link as
// a Poisson packet-delivery process whose rate drifts as Brownian motion;
// every tick it updates a belief over the current rate from observed
// deliveries and bounds what is in flight by what the forecast says the
// link will drain within the 100 ms target delay horizon.
//
// This is the Sprout-EWMA variant, not the paper's cautious forecast. The
// belief is one mean, an EWMA of the delivery rate observed per 20 ms
// tick. The window is the mean belief's deliverable bytes over the
// horizon (at least two MSS), an absolute inflight cap; the pacer runs at
// 1.25x the mean so the belief can climb; a loss halves the mean (floored
// at 0.3 Mbit/s). DESIGN.md §13 says why the 5th-percentile forecast was
// dropped.
package sprout

import (
	"time"

	"pbecc/internal/cc"
)

const (
	mss      = 1500
	tick     = 20 * time.Millisecond
	horizon  = 100 * time.Millisecond // target queueing delay bound
	rateEWMA = 0.25
)

// Sprout is the controller. Create with New.
type Sprout struct {
	rateMean float64 // delivery rate belief mean, bits/sec

	tickEnd   time.Duration
	tickBytes int

	cwnd int
}

// New returns a Sprout controller.
func New() *Sprout {
	return &Sprout{cwnd: cc.InitialCwnd}
}

// OnSent implements cc.Controller.
func (sp *Sprout) OnSent(now time.Duration, seq uint64, inflight int) {}

// OnAck implements cc.Controller.
func (sp *Sprout) OnAck(s cc.AckSample) {
	sp.tickBytes += s.AckedBytes
	if sp.tickEnd == 0 {
		sp.tickEnd = s.Now + tick
		return
	}
	if s.Now < sp.tickEnd {
		return
	}
	// Close the tick: fold the observed delivery rate into the belief.
	observed := float64(sp.tickBytes) * 8 / tick.Seconds()
	sp.tickBytes = 0
	sp.tickEnd = s.Now + tick

	if sp.rateMean == 0 {
		sp.rateMean = observed
	} else {
		sp.rateMean += rateEWMA * (observed - sp.rateMean)
	}

	// Window: the bytes the mean belief says the link drains within the
	// delay horizon - an absolute inflight cap, which is what bounds
	// queueing delay to roughly the horizon.
	budget := int(sp.rateMean * horizon.Seconds() / 8)
	if budget < 2*mss {
		budget = 2 * mss
	}
	sp.cwnd = budget
}

// minRate floors the belief so repeated losses cannot kill the flow
// entirely (the probe above the mean needs a nonzero base to recover).
const minRate = 0.3e6

// OnLoss implements cc.Controller: loss marks a forecast failure; drop the
// belief sharply.
func (sp *Sprout) OnLoss(l cc.LossSample) {
	sp.rateMean *= 0.5
	if sp.rateMean < minRate {
		sp.rateMean = minRate
	}
}

// PacingRate implements cc.Controller: pace slightly above the belief mean
// so the belief can track a link that is faster than the current estimate
// (the window only bounds inflight, hence delay). Without this
// headroom a sender-limited flow would observe only its own rate and the
// belief would collapse.
func (sp *Sprout) PacingRate() float64 {
	if sp.rateMean <= 0 {
		return 0
	}
	return 1.25 * sp.rateMean
}

// CWND implements cc.Controller.
func (sp *Sprout) CWND() int { return sp.cwnd }
