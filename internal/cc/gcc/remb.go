package gcc

import (
	"time"

	"pbecc/internal/sim"
)

// REMB is the receiver side of GCC: it runs the arrival-time filter,
// overuse detector and AIMD rate region on every received data packet and
// publishes the resulting receiver-estimated maximum bitrate. It
// implements cc.FeedbackSource, so in the simulator the estimate rides in
// the acknowledgement's feedback-rate word exactly as a REMB message rides
// in RTCP.
type REMB struct {
	ia   interArrival
	tl   trendline
	det  *detector
	aimd *aimd
	in   *rateWindow

	lastSignal usage
}

// StartRate is the initial AIMD target before any measurement, matching
// the conservative WebRTC default.
const StartRate = 1e6

// incomingWindow sizes the R_hat throughput measurement.
const incomingWindow = 500 * time.Millisecond

// NewREMB returns a receiver-side estimator starting at StartRate.
func NewREMB() *REMB {
	return &REMB{
		det:  newDetector(),
		aimd: newAIMD(StartRate),
		in:   newRateWindow(incomingWindow),
	}
}

// rateKey is the engine-local stock of incoming-rate rings.
var rateKey = sim.NewLocalKey()

// TakeRings gives the estimator the incoming-rate ring that an estimator
// of the previous run on the recycled engine eng grew, and registers it
// for the next run. Call it before the first Observe.
func (r *REMB) TakeRings(eng *sim.Engine) { r.in.samples.FromStock(eng, rateKey) }

// Overusing reports whether the detector currently hypothesizes an
// overused (queue-building) bottleneck.
func (r *REMB) Overusing() bool { return r.lastSignal == usageOver }

// Observe folds one received data packet into the estimator. owd is the
// packet's one-way delay (arrival minus send timestamp), so send time is
// recovered as now-owd; in the simulator both clocks are the engine's
// virtual clock, mirroring the synchronized-enough timestamps real GCC
// gets from RTP.
func (r *REMB) Observe(now, owd time.Duration, bytes int) float64 {
	r.in.add(now, bytes)
	send := now - owd
	sd, ad, ok := r.ia.add(send, now, bytes)
	if !ok {
		return r.aimd.rate
	}
	deltaMs := float64((ad - sd).Microseconds()) / 1000
	trend := r.tl.update(now, deltaMs)
	r.lastSignal = r.det.detect(trend, sd, r.tl.numDeltas, now)
	r.aimd.update(now, r.lastSignal, r.in.rate(now))
	return r.aimd.rate
}

// Feedback implements cc.FeedbackSource: the estimate is attached to every
// acknowledgement; the Internet-bottleneck bit is PBE-specific and stays
// false.
func (r *REMB) Feedback(now time.Duration, owd time.Duration, dataBytes int) (float64, bool) {
	return r.Observe(now, owd, dataBytes), false
}

// Region-control hooks: a hybrid controller with an out-of-band capacity
// measurement (internal/cc/pbertc fusing the PBE physical-layer monitor)
// steers the AIMD region through these instead of reimplementing the
// arrival filter and detector. All three are cleared/neutral by default,
// leaving plain GCC behavior.

// SeedLinkCapacity installs an external link-capacity measurement in
// bits per second, as if an overuse backoff had already measured the
// link: the increase region switches from multiplicative probing to the
// additive near-max slope as the throughput approaches it. Non-positive
// values are ignored.
func (r *REMB) SeedLinkCapacity(bps float64) {
	if bps > 0 {
		r.aimd.capacity.seed(bps)
	}
}

// SetRegionCeiling caps the AIMD rate region at bps in every state (0
// removes the cap). Unlike the loss or delay signals the cap acts
// immediately, so a measured capacity drop pulls the rate down before
// any queue builds.
func (r *REMB) SetRegionCeiling(bps float64) { r.aimd.ceiling = bps }

// RestartProbe re-arms the pre-first-overuse startup ramp and forgets
// the capacity estimate. A hybrid controller calls it when the
// bottleneck regime flips (cellular link <-> Internet): the estimator
// is on what is effectively a new link and must re-find its capacity at
// startup speed, not creep at the old regime's operating point.
func (r *REMB) RestartProbe() {
	r.aimd.decreased = false
	r.aimd.capacity.reset()
}

// FloorRegion lifts the AIMD region to at least bps (bounded by the
// region ceiling). A hybrid controller calls it while an external
// measurement shows the headroom is already granted: the region then
// operates from the measured point, so a later overuse backoff cuts from
// the real operating rate instead of a stale crawl value.
func (r *REMB) FloorRegion(bps float64) {
	if bps <= 0 || bps <= r.aimd.rate {
		return
	}
	if r.aimd.ceiling > 0 && bps > r.aimd.ceiling {
		bps = r.aimd.ceiling
	}
	if bps > r.aimd.rate {
		r.aimd.rate = bps
	}
}

// SetConservative toggles the conservative increase mode: the
// pre-first-overuse exponential startup ramp is suppressed, so the
// region grows at the steady-state multiplicative (or near-max additive)
// slope only. Hybrid controllers enable it when the physical layer shows
// competing users sharing the cell - blasting a startup probe into a
// shared cell costs everyone's latency.
func (r *REMB) SetConservative(on bool) { r.aimd.conservative = on }
