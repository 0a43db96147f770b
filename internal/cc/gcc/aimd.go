package gcc

import (
	"math"
	"time"
)

// Rate-control constants, following the WebRTC AIMD controller: decrease
// to beta times the measured incoming rate on overuse, increase
// multiplicatively while far from the last known capacity and additively
// (about one packet per response time) near it.
const (
	beta = 0.85
	// etaPerSecond is the steady-state multiplicative increase factor per
	// second of increase state.
	etaPerSecond = 1.08
	// startupEtaPerSecond is the pre-first-overuse ramp, standing in for
	// WebRTC's probing clusters: until the controller has seen the link
	// saturate once it has no capacity estimate, and waiting at 8 %/s
	// would take minutes to find a cellular link's hundreds of Mbit/s.
	startupEtaPerSecond = 8.0
	// minIncreaseBps floors the additive term so low rates still move.
	minIncreaseBps = 4000.0

	// MinRate and MaxRate clamp the estimate.
	MinRate = 100e3
	MaxRate = 2e9

	// seedHeadroomFrac splits conservative mode's two slopes: below this
	// fraction of the externally seeded capacity the region may still
	// ramp multiplicatively (the measurement says the headroom is ours);
	// above it only the additive near-max creep remains.
	seedHeadroomFrac = 0.85
)

// rateWindow measures the incoming throughput over a sliding window, the
// R_hat input to the AIMD controller. samples[head:] are the window's
// samples; expired ones are skipped by advancing head and compacted away
// in bulk, so the backing array stops growing once it spans a window.
type rateWindow struct {
	window  time.Duration
	samples []rateSample
	head    int
	bytes   int
}

type rateSample struct {
	at    time.Duration
	bytes int
}

func newRateWindow(window time.Duration) *rateWindow {
	return &rateWindow{window: window}
}

func (r *rateWindow) add(now time.Duration, bytes int) {
	r.samples = append(r.samples, rateSample{now, bytes})
	r.bytes += bytes
	r.expire(now)
}

func (r *rateWindow) expire(now time.Duration) {
	for r.head < len(r.samples) && r.samples[r.head].at < now-r.window {
		r.bytes -= r.samples[r.head].bytes
		r.head++
	}
	if r.head > 0 && r.head*2 >= len(r.samples) {
		n := copy(r.samples, r.samples[r.head:])
		r.samples, r.head = r.samples[:n], 0
	}
}

// rate returns the windowed throughput in bits per second (0 until the
// window has data).
func (r *rateWindow) rate(now time.Duration) float64 {
	r.expire(now)
	if r.head == len(r.samples) {
		return 0
	}
	span := r.window
	if elapsed := now - r.samples[r.head].at; elapsed < span {
		// Window not yet full: avoid overestimating from a short span,
		// but never divide by less than one burst interval.
		if elapsed < burstInterval {
			elapsed = burstInterval
		}
		span = elapsed
	}
	return float64(r.bytes) * 8 / span.Seconds()
}

// linkCapacity tracks an exponentially weighted estimate of the
// throughput observed at overuse, with its normalized variance: the AIMD
// controller increases additively when the current throughput is within
// three standard deviations of this estimate (the link is near capacity)
// and multiplicatively otherwise.
type linkCapacity struct {
	estimate float64
	variance float64 // normalized by the estimate
	has      bool
}

const capacityAlpha = 0.05

func (lc *linkCapacity) onOveruse(tputBps float64) {
	if !lc.has {
		lc.estimate = tputBps
		lc.variance = 0.4
		lc.has = true
		return
	}
	err := tputBps - lc.estimate
	lc.estimate += capacityAlpha * err
	norm := lc.estimate
	if norm < 1 {
		norm = 1
	}
	lc.variance = (1-capacityAlpha)*lc.variance + capacityAlpha*err*err/norm
}

func (lc *linkCapacity) std() float64 {
	v := lc.variance * lc.estimate
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// nearMax reports whether tput is within three standard deviations of the
// capacity estimate.
func (lc *linkCapacity) nearMax(tputBps float64) bool {
	if !lc.has {
		return false
	}
	dev := 3 * lc.std()
	return tputBps > lc.estimate-dev && tputBps < lc.estimate+dev
}

// reset forgets the estimate (called when the throughput leaves the
// estimate's plausible band, e.g. after a handover).
func (lc *linkCapacity) reset() { lc.has = false }

// seed installs an externally measured estimate without waiting for an
// overuse backoff. The first seed starts at the onOveruse default
// variance; later seeds keep the learned variance so the near-max band
// stays calibrated to how stable the measurement actually is.
func (lc *linkCapacity) seed(bps float64) {
	if !lc.has {
		lc.variance = 0.4
		lc.has = true
	}
	lc.estimate = bps
}

type rcState int

const (
	rcHold rcState = iota
	rcIncrease
	rcDecrease
)

// aimd is the GCC rate region: the additive-increase /
// multiplicative-decrease state machine driven by the overuse detector's
// signal and the measured incoming rate.
type aimd struct {
	rate       float64
	state      rcState
	lastChange time.Duration
	capacity   linkCapacity
	rtt        time.Duration
	decreased  bool // true once the first overuse has been handled

	// Region-control hooks for hybrid controllers (REMB.SetRegionCeiling,
	// SetConservative): an external measurement source - in this repo the
	// PBE physical-layer monitor - can bound the rate region and disable
	// the blind startup probe when it already knows where capacity is.
	ceiling      float64 // > 0: upper bound on the rate region, bits/sec
	conservative bool    // suppress the pre-first-overuse exponential ramp
}

func newAIMD(startRate float64) *aimd {
	return &aimd{rate: startRate, state: rcHold, rtt: 100 * time.Millisecond}
}

// update advances the state machine on one detector signal and returns the
// new target rate. tputBps is the measured incoming rate (0 when the
// window is still empty).
func (a *aimd) update(now time.Duration, sig usage, tputBps float64) float64 {
	switch sig {
	case usageOver:
		if a.state != rcDecrease {
			a.state = rcDecrease
		}
	case usageUnder:
		// The queue is draining after an overuse: hold until it is empty
		// and the signal returns to normal.
		a.state = rcHold
	default:
		if a.state == rcHold {
			a.lastChange = now
			a.state = rcIncrease
		}
	}

	switch a.state {
	case rcIncrease:
		a.increase(now, tputBps)
	case rcDecrease:
		a.decrease(now, tputBps)
	}
	// The external ceiling binds in every state, not just increase: when
	// the measured capacity drops (handover, blockage) the region must
	// come down now, not after the queue has built enough for an overuse.
	if a.ceiling > 0 && a.rate > a.ceiling {
		a.rate = a.ceiling
		a.clamp()
	}
	return a.rate
}

func (a *aimd) increase(now time.Duration, tputBps float64) {
	if tputBps > 0 && a.capacity.has && tputBps > a.capacity.estimate+3*a.capacity.std() &&
		!a.conservative {
		// Throughput left the estimate's band upward: the link changed.
		// Not in conservative mode - there the estimate is an external
		// measurement re-seeded continuously, and throughput running past
		// it (another flow's traffic on the shared cell) says nothing
		// about our entitlement.
		a.capacity.reset()
	}
	dt := (now - a.lastChange).Seconds()
	if dt <= 0 {
		return
	}
	if dt > 1 {
		dt = 1
	}
	switch {
	case a.conservative && a.capacity.has:
		// Conservative mode (hybrid controllers, shared cell): the
		// externally seeded estimate is a stopline, not a hint. Below it
		// the measurement says the headroom is ours, so ramp at startup
		// speed (until the first overuse) or the steady multiplicative
		// slope; at it, creep additively instead of probing past it into
		// the competitors' queue.
		if a.rate < seedHeadroomFrac*a.capacity.estimate {
			if !a.decreased {
				a.rate *= math.Pow(startupEtaPerSecond, dt)
			} else {
				a.rate *= math.Pow(etaPerSecond, dt)
			}
		} else {
			a.additiveIncrease(dt)
		}
	case !a.decreased && !a.conservative:
		// Startup: exponential probe toward the first overuse.
		a.rate *= math.Pow(startupEtaPerSecond, dt)
	case a.capacity.has && a.capacity.nearMax(tputBps) &&
		a.rate > a.capacity.estimate-3*a.capacity.std():
		// Near capacity - both the measured throughput and the region
		// itself (a region far below the estimate must keep growing
		// multiplicatively, not creep): about one average packet per
		// response time.
		a.additiveIncrease(dt)
	default:
		a.rate *= math.Pow(etaPerSecond, dt)
	}
	// Never run more than 50% ahead of what actually arrives: an
	// application-limited source must not inflate the estimate without
	// evidence. (Media senders probe with padding to give the estimate
	// evidence to grow on, as WebRTC does.)
	if tputBps > 0 {
		if limit := 1.5*tputBps + 10e3; a.rate > limit {
			a.rate = limit
		}
	}
	a.clamp()
	a.lastChange = now
}

// additiveIncrease applies the near-max additive slope for dt seconds.
func (a *aimd) additiveIncrease(dt float64) {
	inc := a.nearMaxIncreaseBpsPerSecond() * dt
	if inc < minIncreaseBps*dt {
		inc = minIncreaseBps * dt
	}
	a.rate += inc
}

// nearMaxIncreaseBpsPerSecond is the additive slope: one average packet
// per response time (RTT plus 100 ms of detector latency).
func (a *aimd) nearMaxIncreaseBpsPerSecond() float64 {
	const framePerSecond = 30
	frameBits := a.rate / framePerSecond
	packets := frameBits / (1200 * 8)
	if packets < 1 {
		packets = 1
	}
	avgPacketBits := frameBits / packets
	response := a.rtt + 100*time.Millisecond
	return avgPacketBits / response.Seconds()
}

func (a *aimd) decrease(now time.Duration, tputBps float64) {
	if tputBps <= 0 {
		tputBps = a.rate
	}
	target := beta * tputBps
	if target < a.rate {
		a.rate = target
		// Only an overuse that actually moved the rate counts as the
		// first backoff: if the throughput is far above the region the
		// congestion is not of our making, and the startup ramp must
		// stay armed to find the real capacity.
		a.decreased = true
	}
	if a.capacity.has && tputBps < a.capacity.estimate-3*a.capacity.std() {
		a.capacity.reset()
	}
	a.capacity.onOveruse(tputBps)
	a.clamp()
	a.state = rcHold
	a.lastChange = now
}

func (a *aimd) clamp() {
	if a.rate < MinRate {
		a.rate = MinRate
	}
	if a.rate > MaxRate {
		a.rate = MaxRate
	}
}
