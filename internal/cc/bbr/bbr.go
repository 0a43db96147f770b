// Package bbr implements BBR (v1) congestion control as described in
// Cardwell et al., "BBR: Congestion-Based Congestion Control" (ACM Queue,
// 2016) and the Linux implementation: a windowed-max filter over delivery
// rate estimates the bottleneck bandwidth (BtlBw), a windowed-min filter
// over RTT estimates the round-trip propagation time (RTprop), and the
// sender paces at gain-cycled multiples of BtlBw while capping inflight at
// a multiple of the bandwidth-delay product. The eight-phase ProbeBW gain
// cycle is the one shown in Figure 9 of the PBE-CC paper.
package bbr

import (
	"time"

	"pbecc/internal/cc"
)

// State is a BBR state machine phase.
type State int

// BBR states.
const (
	Startup State = iota
	Drain
	ProbeBW
	ProbeRTT
)

// String names the state.
func (s State) String() string {
	switch s {
	case Startup:
		return "Startup"
	case Drain:
		return "Drain"
	case ProbeBW:
		return "ProbeBW"
	case ProbeRTT:
		return "ProbeRTT"
	}
	return "?"
}

// Gain constants from the BBR paper.
const (
	highGain      = 2.885 // 2/ln(2): fills the pipe in O(log BDP) rounds
	drainGain     = 1 / highGain
	cwndGain      = 2.0
	rtpropWindow  = 10 * time.Second
	btlbwRounds   = 10 // BtlBw filter window, in packet-timed round trips
	probeRTTTime  = 200 * time.Millisecond
	fullBwThresh  = 1.25 // growth required to keep startup going
	fullBwRounds  = 3
	minCwndProbe  = 4 * 1500 // ProbeRTT window
	initialRate   = 0        // unpaced until the first RTT sample
	probeBWPhases = 8
)

// probeBWGains is the eight-phase pacing-gain cycle of ProbeBW (the
// paper's Figure 9).
var probeBWGains = [probeBWPhases]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// BBR is the controller. Create with New.
type BBR struct {
	state State

	btlBw  cc.WindowedMax // bits/sec, windowed by round count
	rtProp cc.WindowedMin // seconds

	rtPropStamp    time.Duration // when rtProp was last refreshed
	probeRTTDoneAt time.Duration

	round              uint64
	nextRoundDelivered uint64
	delivered          uint64

	fullBw       float64
	fullBwRounds int

	phase      int
	phaseStart time.Duration

	pacingGain float64
	cwnd       int
	inflight   int
}

// New returns a BBR controller.
func New() *BBR {
	b := &BBR{
		state:      Startup,
		pacingGain: highGain,
		cwnd:       cc.InitialCwnd,
	}
	b.btlBw.Window = btlbwRounds
	b.rtProp.Window = rtpropWindow
	return b
}

// RTprop returns the current propagation-delay estimate.
func (b *BBR) RTprop() time.Duration { return time.Duration(b.rtProp.Get()) }

// OnSent implements cc.Controller.
func (b *BBR) OnSent(now time.Duration, seq uint64, inflight int) {
	b.inflight = inflight
}

// OnLoss implements cc.Controller. BBRv1 ignores individual losses except
// for inflight bookkeeping.
func (b *BBR) OnLoss(l cc.LossSample) { b.inflight = l.InflightBytes }

// OnAck implements cc.Controller.
func (b *BBR) OnAck(s cc.AckSample) {
	now := s.Now
	b.inflight = s.InflightBytes
	b.delivered += uint64(s.AckedBytes)

	// Round accounting: one round per delivered window of data.
	newRound := false
	if b.delivered >= b.nextRoundDelivered {
		b.round++
		b.nextRoundDelivered = b.delivered + uint64(b.inflight)
		newRound = true
	}

	if s.DeliveryRate > 0 {
		b.btlBw.Update(time.Duration(b.round), s.DeliveryRate)
	}
	if s.RTT > 0 {
		old := b.RTprop()
		b.rtProp.Update(now, float64(s.RTT))
		if b.RTprop() < old || old == 0 || s.RTT <= b.RTprop() {
			b.rtPropStamp = now
		}
	}

	switch b.state {
	case Startup:
		if newRound {
			b.checkFullPipe()
		}
		if b.state == Drain && float64(b.inflight) <= b.bdp(1.0) {
			b.enterProbeBW(now)
		}
	case Drain:
		if float64(b.inflight) <= b.bdp(1.0) {
			b.enterProbeBW(now)
		}
	case ProbeBW:
		b.advanceCycle(now)
	case ProbeRTT:
		if b.probeRTTDoneAt == 0 && b.inflight <= minCwndProbe {
			b.probeRTTDoneAt = now + probeRTTTime
		}
		if b.probeRTTDoneAt != 0 && now >= b.probeRTTDoneAt {
			b.rtPropStamp = now
			b.enterProbeBW(now)
		}
	}

	// ProbeRTT entry: RTprop stale for 10s.
	if b.state != ProbeRTT && b.rtPropStamp > 0 && now-b.rtPropStamp > rtpropWindow {
		b.state = ProbeRTT
		b.pacingGain = 1
		b.probeRTTDoneAt = 0
	}

	b.updateCwnd()
}

func (b *BBR) checkFullPipe() {
	bw := b.btlBw.Get()
	if bw > b.fullBw*fullBwThresh {
		b.fullBw = bw
		b.fullBwRounds = 0
		return
	}
	b.fullBwRounds++
	if b.fullBwRounds >= fullBwRounds {
		b.state = Drain
		b.pacingGain = drainGain
	}
}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.state = ProbeBW
	// Start after the 1.25 phase so a fresh flow doesn't immediately
	// overshoot; the Linux implementation randomizes over phases 2-7.
	b.phase = 2
	b.phaseStart = now
	b.pacingGain = probeBWGains[b.phase]
}

func (b *BBR) advanceCycle(now time.Duration) {
	rtprop := b.RTprop()
	if rtprop <= 0 {
		rtprop = 10 * time.Millisecond
	}
	elapsed := now - b.phaseStart
	switch {
	case probeBWGains[b.phase] == 0.75:
		// Leave the drain phase early once the queue is gone.
		if elapsed >= rtprop || float64(b.inflight) <= b.bdp(1.0) {
			b.nextPhase(now)
		}
	default:
		if elapsed >= rtprop {
			b.nextPhase(now)
		}
	}
}

func (b *BBR) nextPhase(now time.Duration) {
	b.phase = (b.phase + 1) % probeBWPhases
	b.phaseStart = now
	b.pacingGain = probeBWGains[b.phase]
}

// bdp returns gain * BtlBw * RTprop in bytes.
func (b *BBR) bdp(gain float64) float64 {
	bw := b.btlBw.Get()
	rt := b.RTprop()
	if bw <= 0 || rt <= 0 {
		return float64(cc.InitialCwnd)
	}
	return gain * bw * rt.Seconds() / 8
}

func (b *BBR) updateCwnd() {
	if b.state == ProbeRTT {
		b.cwnd = minCwndProbe
		return
	}
	gain := cwndGain
	if b.state == Startup || b.state == Drain {
		gain = highGain // let the exponential ramp stay window-unconstrained
	}
	w := int(b.bdp(gain))
	if w < cc.MinCwnd {
		w = cc.MinCwnd
	}
	b.cwnd = w
}

// ForceProbeBW places the controller directly in the ProbeBW state - the
// entry point PBE-CC uses for its cellular-tailored BBR ("PBE-CC directly
// enters BBR's ProbeBW state", §4.2.3 of the PBE-CC paper).
func (b *BBR) ForceProbeBW(now time.Duration) {
	b.enterProbeBW(now)
	b.updateCwnd()
}

// PacingRate implements cc.Controller.
func (b *BBR) PacingRate() float64 {
	bw := b.btlBw.Get()
	if bw <= 0 {
		return initialRate
	}
	return b.pacingGain * bw
}

// CWND implements cc.Controller.
func (b *BBR) CWND() int { return b.cwnd }
