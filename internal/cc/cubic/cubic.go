// Package cubic implements CUBIC congestion control (Ha, Rhee, Xu, "CUBIC:
// A New TCP-Friendly High-Speed TCP Variant", SIGOPS OSR 2008; RFC 8312):
// slow start to the slow-start threshold, then window growth along the
// cubic function W(t) = C*(t-K)^3 + Wmax with beta = 0.7 multiplicative
// decrease, fast convergence, and the TCP-friendly region.
package cubic

import (
	"math"
	"time"

	"pbecc/internal/cc"
)

const (
	mss  = 1500
	beta = 0.7
	c    = 0.4
)

// Cubic is the controller. Create with New.
type Cubic struct {
	cwnd     float64 // in MSS
	ssthresh float64

	wMax       float64
	epochStart time.Duration
	k          float64
	wTCP       float64 // RFC 8312 §4.2 W_est, grown per ACK

	highestSent    uint64
	recoveryEndSeq uint64
	inRecovery     bool
}

// New returns a CUBIC controller.
func New() *Cubic {
	return &Cubic{
		cwnd:     float64(cc.InitialCwnd) / mss,
		ssthresh: math.Inf(1),
	}
}

// InSlowStart reports whether the window is below the slow-start
// threshold.
func (cu *Cubic) InSlowStart() bool { return cu.cwnd < cu.ssthresh }

// OnSent implements cc.Controller.
func (cu *Cubic) OnSent(now time.Duration, seq uint64, inflight int) {
	if seq > cu.highestSent {
		cu.highestSent = seq
	}
}

// OnAck implements cc.Controller.
func (cu *Cubic) OnAck(s cc.AckSample) {
	if cu.inRecovery && s.Seq >= cu.recoveryEndSeq {
		cu.inRecovery = false
	}
	ackedMSS := float64(s.AckedBytes) / mss

	if cu.InSlowStart() {
		cu.cwnd += ackedMSS
		return
	}

	// Congestion avoidance: cubic update.
	if cu.epochStart == 0 {
		cu.epochStart = s.Now
		if cu.wMax < cu.cwnd {
			cu.wMax = cu.cwnd
		}
		cu.k = math.Cbrt(cu.wMax * (1 - beta) / c)
		cu.wTCP = cu.cwnd
	}
	t := (s.Now - cu.epochStart).Seconds()
	target := cu.wMax + c*math.Pow(t-cu.k, 3)

	// TCP-friendly region (RFC 8312 §4.2).
	cu.wTCP += 3 * (1 - beta) / (1 + beta) * ackedMSS / cu.cwnd
	if cu.wTCP > target {
		target = cu.wTCP
	}

	if target > cu.cwnd {
		cu.cwnd += (target - cu.cwnd) / cu.cwnd * ackedMSS
	} else {
		cu.cwnd += 0.01 * ackedMSS / cu.cwnd // minimal growth
	}
}

// OnLoss implements cc.Controller: multiplicative decrease once per
// window of data (losses within one recovery episode are coalesced).
func (cu *Cubic) OnLoss(l cc.LossSample) {
	if cu.inRecovery && l.Seq <= cu.recoveryEndSeq {
		return
	}
	cu.inRecovery = true
	cu.recoveryEndSeq = cu.highestSent

	// Fast convergence (RFC 8312 §4.6).
	if cu.cwnd < cu.wMax {
		cu.wMax = cu.cwnd * (2 - beta) / 2
	} else {
		cu.wMax = cu.cwnd
	}
	cu.cwnd *= beta
	if cu.cwnd < float64(cc.MinCwnd)/mss {
		cu.cwnd = float64(cc.MinCwnd) / mss
	}
	cu.ssthresh = cu.cwnd
	cu.epochStart = 0
}

// PacingRate implements cc.Controller: CUBIC is a pure window protocol.
func (cu *Cubic) PacingRate() float64 { return 0 }

// CWND implements cc.Controller.
func (cu *Cubic) CWND() int { return int(cu.cwnd * mss) }
