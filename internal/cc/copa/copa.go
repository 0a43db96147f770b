// Package copa implements Copa congestion control (Arun & Balakrishnan,
// NSDI 2018) in its default mode: the sender targets the rate
// 1/(delta * d_q) where d_q is the queueing delay (standing RTT minus the
// minimum RTT), adjusting the window by v/(delta*cwnd) per ACK with a
// velocity parameter v that doubles when the window keeps moving in one
// direction for three RTTs.
package copa

import (
	"time"

	"pbecc/internal/cc"
)

const (
	mss          = 1500
	defaultDelta = 0.5
)

// Copa is the controller. Create with New.
type Copa struct {
	delta float64
	cwnd  float64 // in MSS

	rttMin      cc.WindowedMin // over 10 s
	rttStanding cc.WindowedMin // over srtt/2

	velocity  float64
	direction int // +1 up, -1 down
	dirSince  time.Duration
	dirRTTs   int

	srtt time.Duration
}

// New returns a Copa controller with the default delta of 0.5.
func New() *Copa {
	co := &Copa{delta: defaultDelta, cwnd: float64(cc.InitialCwnd) / mss, velocity: 1}
	co.rttMin.Window = 10 * time.Second
	co.rttStanding.Window = 100 * time.Millisecond
	return co
}

// OnSent implements cc.Controller.
func (co *Copa) OnSent(now time.Duration, seq uint64, inflight int) {}

// OnAck implements cc.Controller.
func (co *Copa) OnAck(s cc.AckSample) {
	now := s.Now
	co.srtt = s.SRTT
	co.rttStanding.Window = s.SRTT / 2
	if co.rttStanding.Window < 10*time.Millisecond {
		co.rttStanding.Window = 10 * time.Millisecond
	}
	co.rttMin.Update(now, float64(s.RTT))
	co.rttStanding.Update(now, float64(s.RTT))

	dq := time.Duration(co.rttStanding.Get() - co.rttMin.Get())
	var targetRate float64 // MSS packets per second
	if dq <= 0 {
		targetRate = 1e12 // no queue: push up
	} else {
		targetRate = 1 / (co.delta * dq.Seconds())
	}
	standing := time.Duration(co.rttStanding.Get())
	if standing <= 0 {
		standing = s.SRTT
	}
	curRate := co.cwnd / standing.Seconds()

	dir := -1
	if curRate < targetRate {
		dir = +1
	}
	co.updateVelocity(now, dir)
	step := co.velocity / (co.delta * co.cwnd)
	co.cwnd += float64(dir) * step
	if co.cwnd < 2 {
		co.cwnd = 2
	}
}

// updateVelocity implements Copa's velocity doubling: the velocity doubles
// each RTT that the window keeps moving in the same direction (after an
// initial three), and resets on a direction change.
func (co *Copa) updateVelocity(now time.Duration, dir int) {
	if dir != co.direction {
		co.direction = dir
		co.velocity = 1
		co.dirSince = now
		co.dirRTTs = 0
		return
	}
	if co.srtt > 0 && now-co.dirSince >= co.srtt {
		co.dirSince = now
		co.dirRTTs++
		if co.dirRTTs >= 3 {
			co.velocity *= 2
			if co.velocity > 1<<16 {
				co.velocity = 1 << 16
			}
		}
	}
}

// OnLoss implements cc.Controller. Default-mode Copa reacts to loss only
// through the delay signal; a sharp decrease guards against buffer
// overflow regimes.
func (co *Copa) OnLoss(l cc.LossSample) {
	co.cwnd /= 2
	if co.cwnd < 2 {
		co.cwnd = 2
	}
	co.velocity = 1
	co.direction = 0
}

// PacingRate implements cc.Controller: Copa paces at 2*cwnd/RTTstanding to
// spread transmissions.
func (co *Copa) PacingRate() float64 {
	standing := time.Duration(co.rttStanding.Get())
	if standing <= 0 {
		return 0
	}
	return 2 * co.cwnd * mss * 8 / standing.Seconds()
}

// CWND implements cc.Controller.
func (co *Copa) CWND() int { return int(co.cwnd * mss) }
