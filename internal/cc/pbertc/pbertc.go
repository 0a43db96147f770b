// Package pbertc implements the PBE-RTC hybrid controller, registered as
// scheme "pbertc": GCC's delay-based machinery (arrival groups, trendline
// overuse detector, AIMD region) with the rate region driven by PBE-CC's
// physical-layer measurements when the cellular link is the bottleneck.
//
// The fusion rules, per packet at the receiver:
//
//   - The PBE internet-bottleneck detector (§4.2.2, Eqn 6) decides which
//     regime governs. In the Internet-bottleneck state the physical-layer
//     numbers describe a link that is not the constraint, so every hook is
//     cleared and the estimator degrades to plain delay-based GCC.
//   - In the wireless-bottleneck state the monitor's available capacity
//     C_t seeds the AIMD linkCapacity estimate - the region switches to
//     the additive near-max slope as throughput approaches measured
//     capacity instead of probing past it into the queue - and
//     max(C_t, C_f) caps the region outright, so a capacity drop
//     (handover, blockage) pulls the rate down before any queue builds.
//   - The filtered competing-user count (§4.2.1) selects the increase
//     mode: a sole occupant may run GCC's exponential startup ramp toward
//     the measured headroom; with competitors on the cell the ramp is
//     suppressed and the region grows at the conservative slopes only.
//
// The sender side is unchanged GCC (loss ceiling bounded by REMB): all
// fusion happens where the physical-layer monitor lives, and the fused
// estimate rides to the sender in the ordinary feedback word.
package pbertc

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/gcc"
	"pbecc/internal/core"
	"pbecc/internal/netsim"
	"pbecc/internal/obs"
	"pbecc/internal/sim"
)

var (
	mFused    = obs.NewCounter("pbertc.fused_packets")
	mFallback = obs.NewCounter("pbertc.fallback_packets")
	mConserve = obs.NewCounter("pbertc.conservative_packets")
)

// New returns the sender side: plain GCC. Attach a NewFeedback as the
// flow's receiver-side feedback source; without one it degrades exactly as
// GCC does (loss ceiling bounded by measured delivery rate).
func New() *gcc.GCC { return gcc.New() }

// Feedback is the receiver side of the hybrid: a GCC REMB estimator
// whose region is steered by the PBE monitor through the gcc
// region-control hooks. It implements cc.FeedbackSource.
type Feedback struct {
	mon  *core.Monitor
	det  *core.Detector
	remb *gcc.REMB

	wasInternet bool

	// Fast-ramp arming (§4.3): the floor is a regime probe, not a steady
	// pressure. floorArmed starts true; the first packet whose one-way
	// delay crosses D_th while armed disarms it (the jump built a queue,
	// so the entitlement is not deliverable end-to-end - an Internet hop
	// is in the way). floorRef remembers the entitlement at disarm time:
	// the floor re-arms when the measurement moves at least 20% from it
	// (a genuine capacity step - handover, blockage edge - is exactly
	// when the paper's one-RTT re-convergence matters) or when the
	// bottleneck regime flips.
	floorArmed bool
	floorRef   float64
}

var _ cc.FeedbackSource = (*Feedback)(nil)

// NewFeedback wires the hybrid estimator around a physical-layer
// monitor. A nil monitor is legal and leaves a plain GCC estimator (the
// conformance suite runs without a cellular path).
func NewFeedback(mon *core.Monitor) *Feedback {
	return &Feedback{mon: mon, det: core.NewDetector(), remb: gcc.NewREMB(), floorArmed: true}
}

// TakeRings hands the estimator the engine's stock of rings (see
// gcc.REMB.TakeRings). Call it before the first Feedback.
func (f *Feedback) TakeRings(eng *sim.Engine) { f.remb.TakeRings(eng) }

// Feedback implements cc.FeedbackSource: fold one received data packet
// into the estimator and return (rate, internet-bottleneck bit).
func (f *Feedback) Feedback(now, owd time.Duration, dataBytes int) (float64, bool) {
	var ct, cf float64
	if f.mon != nil {
		ct = f.mon.CapacityBits() // bits per subframe
		cf = f.mon.FairShareBits()
	}
	npkt := int(core.NpktSubframes * ct / (8 * netsim.MSS))
	internet := f.det.Observe(now, owd, npkt)
	if internet != f.wasInternet {
		// Regime flip: the estimator is on what is effectively a new
		// link, so it may re-probe at startup speed instead of crawling
		// up from the old regime's operating point. The fast-ramp floor
		// deliberately does NOT re-arm here: after a disarm the regimes
		// oscillate (the probe's queue flips Eqn 6 to Internet, the
		// drained queue flips it back), and re-arming on the flip would
		// re-fire the probe every cycle - a permanent standing queue.
		// Only the entitlement moving re-arms the floor.
		f.remb.RestartProbe()
		f.wasInternet = internet
	}

	if internet || ct <= 0 {
		// The cellular link is not the bottleneck (or the monitor has no
		// signal yet): clear every hook and run pure delay-based GCC.
		f.remb.SetRegionCeiling(0)
		f.remb.SetConservative(false)
		mFallback.Inc()
		return f.remb.Observe(now, owd, dataBytes), internet
	}

	// Wireless bottleneck: drive the region from the physical layer. The
	// entitled rate is max(C_t, C_f), as in the PBE client's own wireless
	// feedback (§4.1): C_f alone would forfeit idle PRBs the scheduler is
	// already granting us, C_t alone can settle below the fair share
	// against an always-backlogged competitor. It both seeds the capacity
	// estimate and caps the region, so the AIMD ramps toward the measured
	// entitlement and stops there instead of probing into the queue.
	entitled := ct
	if cf > entitled {
		entitled = cf
	}
	bps := core.BitsPerSubframeToBps(entitled)
	f.remb.SeedLinkCapacity(bps)
	f.remb.SetRegionCeiling(bps)
	shared := false
	for _, id := range f.mon.ActiveCellIDs() {
		if f.mon.ActiveUsers(id) > 1 {
			shared = true
			break
		}
	}
	f.remb.SetConservative(shared)
	if shared {
		mConserve.Inc()
	}
	mFused.Inc()
	// §4.3 fast ramp-up, the fusion's other half. The ceiling above pulls
	// the region down the moment measured capacity drops; symmetrically,
	// the measured entitlement is bandwidth the scheduler is granting us
	// right now, so while the fast ramp is armed it floors the AIMD
	// region - one RTT to capacity, the paper's convergence claim -
	// instead of waiting for the region to crawl there against its own
	// throughput-evidence limiter. The floor stops at fastRampFrac of the
	// entitlement (the same stopline the conservative slopes use): the
	// last stretch is the additive creep's job, so the jump itself never
	// fills a queue on the measured cell. A one-way delay past the PBE
	// threshold D_th while armed disarms the probe - the entitlement is
	// not deliverable end-to-end, so an unseen hop (an Internet
	// bottleneck Eqn 6 has not confirmed yet) owns the path and GCC's
	// delay machinery governs; because the region was lifted, the
	// backoff cuts from the real operating rate, not the pre-jump crawl
	// value. A 20% move in the measured entitlement re-arms it: a
	// capacity step is exactly when one-RTT re-convergence matters.
	if f.floorArmed {
		if owd > f.det.Threshold() {
			f.floorArmed = false
			f.floorRef = bps
		} else if !f.remb.Overusing() {
			f.remb.FloorRegion(fastRampFrac * bps)
		}
	} else if f.floorRef > 0 && (bps > 1.2*f.floorRef || bps < 0.8*f.floorRef) {
		f.floorArmed = true
	}
	return f.remb.Observe(now, owd, dataBytes), false
}

// fastRampFrac is how much of the measured entitlement the fast ramp
// claims outright; the remaining headroom is probed additively.
const fastRampFrac = 0.85
