// Package gcc implements a GCC-style delay-based bandwidth estimator
// (Carlucci et al., "Analysis and Design of the Google Congestion Control
// for Web Real-time Communication", MMSys 2016): the WebRTC lineage of
// congestion control and the natural real-time baseline for PBE-CC to
// beat. The receiver runs an arrival-time filter (inter-group delay
// variation through a trendline slope estimator), an overuse detector
// with an adaptive threshold, and an AIMD rate region; the resulting
// receiver-estimated maximum bitrate (REMB) returns to the sender in the
// acknowledgement feedback word. The sender combines that delay-based
// estimate with a loss-based ceiling and paces at the minimum of the two.
package gcc

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/sim"
)

// Loss-based ceiling parameters (GCC draft §5): heavy loss cuts the
// ceiling multiplicatively, sustained low loss lets it recover.
const (
	lossUpdateInterval = 500 * time.Millisecond
	lossHighPct        = 0.10
	lossLowPct         = 0.02
	lossRecoverFactor  = 1.08
)

// GCC is the sender-side controller. Create with New; the receiver-side
// estimator (NewREMB) must be attached as the flow's feedback source for
// the delay-based path to operate — without it the controller degrades to
// its loss-based ceiling bounded by measured delivery rate.
type GCC struct {
	lossCeiling float64 // As: loss-based ceiling, bits/sec
	remb        float64 // Ar: latest receiver estimate, bits/sec
	srtt        time.Duration

	deliveryMax cc.WindowedMax

	acked, lost  int
	windowStart  time.Duration
	haveInterval bool
}

// New returns a GCC controller with the loss ceiling wide open (the
// delay-based REMB estimate is the governing signal until losses appear).
func New() *GCC {
	g := &GCC{lossCeiling: MaxRate}
	g.deliveryMax.Window = 2 * time.Second
	return g
}

// TakeRings gives the controller's delivery-rate filter the ring that a
// filter of the previous run on the recycled engine eng grew (see
// cc.WindowedMax.TakeRing). Call it before the first OnAck.
func (g *GCC) TakeRings(eng *sim.Engine) { g.deliveryMax.TakeRing(eng) }

// OnSent implements cc.Controller.
func (g *GCC) OnSent(now time.Duration, seq uint64, inflight int) {}

// OnAck implements cc.Controller.
func (g *GCC) OnAck(s cc.AckSample) {
	g.srtt = s.SRTT
	if s.FeedbackRate > 0 {
		g.remb = s.FeedbackRate
	}
	if s.DeliveryRate > 0 && !s.AppLimited {
		g.deliveryMax.Update(s.Now, s.DeliveryRate)
	}
	g.acked++
	g.updateLossCeiling(s.Now)
}

// OnLoss implements cc.Controller.
func (g *GCC) OnLoss(l cc.LossSample) {
	g.lost++
	g.updateLossCeiling(l.Now)
}

// updateLossCeiling recomputes the loss-based ceiling once per interval:
// above 10% loss the ceiling is cut below the current operating rate,
// under 2% it recovers multiplicatively.
func (g *GCC) updateLossCeiling(now time.Duration) {
	if !g.haveInterval {
		g.windowStart = now
		g.haveInterval = true
		return
	}
	if now-g.windowStart < lossUpdateInterval {
		return
	}
	total := g.acked + g.lost
	if total > 0 {
		p := float64(g.lost) / float64(total)
		switch {
		case p > lossHighPct:
			// Cut from the rate actually in use, not a stale ceiling.
			g.lossCeiling = g.target() * (1 - 0.5*p)
		case p < lossLowPct:
			g.lossCeiling *= lossRecoverFactor
		}
		if g.lossCeiling < MinRate {
			g.lossCeiling = MinRate
		}
		if g.lossCeiling > MaxRate {
			g.lossCeiling = MaxRate
		}
	}
	g.acked, g.lost = 0, 0
	g.windowStart = now
}

// target is min(loss-based ceiling, REMB). Before the first REMB arrives
// the measured delivery rate bounds the ceiling, so a flow without a
// receiver-side estimator cannot blast open-loop.
func (g *GCC) target() float64 {
	t := g.lossCeiling
	if g.remb > 0 {
		if g.remb < t {
			t = g.remb
		}
	} else if dm := g.deliveryMax.Get(); dm > 0 {
		if limit := 1.5 * dm; limit < t {
			t = limit
		}
	} else {
		// Nothing measured yet: start conservatively.
		t = StartRate
	}
	return t
}

// PacingRate implements cc.Controller: GCC is purely rate-based.
func (g *GCC) PacingRate() float64 { return g.target() }

// CWND implements cc.Controller: a generous two-BDP window so pacing is
// the binding constraint, as in the WebRTC pacer.
func (g *GCC) CWND() int {
	rtt := g.srtt
	if rtt <= 0 {
		rtt = 100 * time.Millisecond
	}
	w := 2 * cc.BDPBytes(g.target(), rtt)
	if w < cc.InitialCwnd {
		w = cc.InitialCwnd
	}
	return w
}
