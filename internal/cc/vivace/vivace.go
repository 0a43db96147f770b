// Package vivace implements PCC Vivace (Dong et al., NSDI 2018):
// online-learning rate control by gradient ascent on the utility
//
//	u(x) = x^0.9 - b*x*max(0, dRTT/dt) - c*x*L
//
// with b = 900, c = 11.35 and x in Mbit/s. The sender alternates monitor
// intervals at rate x(1+eps) and x(1-eps), estimates the utility gradient
// from the pair, and steps the rate along it with a confidence-amplified,
// change-bounded step.
package vivace

import (
	"math"
	"time"

	"pbecc/internal/cc"
)

const (
	mss        = 1500
	eps        = 0.05
	utilExp    = 0.9
	latCoeff   = 900.0
	lossCoeff  = 11.35
	minRate    = 0.3e6
	thetaScale = 0.05e6 // converts utility gradient to bits/sec step
	maxChange  = 0.25   // per-update rate change bound (fraction)
)

// miRecord is one monitor interval's measurements.
type miRecord struct {
	rate     float64
	start    time.Duration
	end      time.Duration
	acked    int
	lost     int
	firstRTT time.Duration
	lastRTT  time.Duration
}

// Vivace is the controller. Create with New.
type Vivace struct {
	rate float64
	mi   miRecord
	half int // 0 = testing +eps, 1 = testing -eps
	uUp  float64

	confidence int
	lastDir    int

	miDur time.Duration
	srtt  time.Duration
}

// New returns a Vivace controller.
func New() *Vivace {
	return &Vivace{rate: 2 * minRate, miDur: 20 * time.Millisecond, confidence: 1}
}

func (v *Vivace) trialRate() float64 {
	if v.half == 0 {
		return v.rate * (1 + eps)
	}
	return v.rate * (1 - eps)
}

// utility computes Vivace's latency-gradient utility for a closed MI.
func (v *Vivace) utility(m *miRecord) float64 {
	total := m.acked + m.lost
	var l float64
	if total > 0 {
		l = float64(m.lost) / float64(total)
	}
	x := m.rate / 1e6
	grad := 0.0
	if dur := m.end - m.start; dur > 0 && m.firstRTT > 0 {
		grad = (m.lastRTT - m.firstRTT).Seconds() / dur.Seconds()
		if grad < 0 {
			grad = 0
		}
	}
	return math.Pow(x, utilExp) - latCoeff*x*grad - lossCoeff*x*l
}

// OnSent implements cc.Controller.
func (v *Vivace) OnSent(now time.Duration, seq uint64, inflight int) {}

// OnAck implements cc.Controller.
func (v *Vivace) OnAck(s cc.AckSample) {
	v.srtt = s.SRTT
	if v.srtt > 0 {
		v.miDur = v.srtt
		if v.miDur < 10*time.Millisecond {
			v.miDur = 10 * time.Millisecond
		}
	}
	if v.mi.end == 0 {
		v.startMI(s.Now)
		return
	}
	v.mi.acked++
	if v.mi.firstRTT == 0 {
		v.mi.firstRTT = s.RTT
	}
	v.mi.lastRTT = s.RTT
	if s.Now >= v.mi.end {
		v.closeMI(s.Now)
	}
}

// OnLoss implements cc.Controller.
func (v *Vivace) OnLoss(l cc.LossSample) {
	v.mi.lost++
}

func (v *Vivace) startMI(now time.Duration) {
	v.mi = miRecord{rate: v.trialRate(), start: now, end: now + v.miDur}
}

func (v *Vivace) closeMI(now time.Duration) {
	u := v.utility(&v.mi)
	if v.half == 0 {
		v.uUp = u
		v.half = 1
		v.startMI(now)
		return
	}
	v.half = 0
	uDown := u

	// Gradient estimate over the pair.
	theta := (v.uUp - uDown) / (2 * eps * (v.rate / 1e6))
	dir := +1
	if theta < 0 {
		dir = -1
	}
	if dir == v.lastDir {
		v.confidence++
		if v.confidence > 8 {
			v.confidence = 8
		}
	} else {
		v.confidence = 1
	}
	v.lastDir = dir

	step := float64(v.confidence) * thetaScale * math.Abs(theta)
	if max := maxChange * v.rate; step > max {
		step = max
	}
	v.rate += float64(dir) * step
	if v.rate < minRate {
		v.rate = minRate
	}
	v.startMI(now)
}

// PacingRate implements cc.Controller.
func (v *Vivace) PacingRate() float64 { return v.trialRate() }

// CWND implements cc.Controller: inflight guard of two seconds at rate.
func (v *Vivace) CWND() int {
	w := int(v.trialRate() * 2 / 8)
	if w < cc.MinCwnd {
		w = cc.MinCwnd
	}
	return w
}
