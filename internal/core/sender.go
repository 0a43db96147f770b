package core

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/bbr"
	"pbecc/internal/netsim"
)

// Mode is the PBE-CC sender's operating mode.
type Mode int

// Sender modes: tracking the fed-back wireless capacity, draining the
// Internet-bottleneck queue at half BtlBw for one RTprop, or running the
// cellular-tailored BBR.
const (
	ModeWireless Mode = iota
	ModeDrain
	ModeInternet
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeWireless:
		return "wireless"
	case ModeDrain:
		return "drain"
	case ModeInternet:
		return "internet"
	}
	return "?"
}

// rampRTTs is the linear-increase duration of §4.1: the sender approaches
// the fair share over three round-trip times.
const rampRTTs = 3

// harqCwndAllowance widens the BDP window so HARQ-delayed packets (held up
// to ~8 ms in the reordering buffer) do not stall the pipe.
const harqCwndAllowance = 10 * time.Millisecond

// Sender is the PBE-CC congestion controller (implements cc.Controller).
type Sender struct {
	mode Mode

	target    float64 // fed-back capacity, bits/sec
	rampFrom  float64
	rampStart time.Duration

	cfCap    float64 // fair-share cap C_f fed back in Internet state
	drainEnd time.Duration

	now    time.Duration
	srtt   time.Duration
	rtProp cc.WindowedMin
	btlBw  cc.WindowedMax

	bbr *bbr.BBR

	// MisreportGuard, when positive, caps the fed-back rate at this
	// multiple of the measured delivery rate - the server-side defence
	// against malicious capacity reports sketched in §7. Zero disables
	// the guard.
	MisreportGuard float64
}

// NewSender returns a PBE-CC sender controller.
func NewSender() *Sender {
	s := &Sender{bbr: bbr.New()}
	s.rtProp.Window = 10 * time.Second
	s.btlBw.Window = 2500 * time.Millisecond
	return s
}

// RTprop returns the sender's propagation-delay estimate.
func (s *Sender) RTprop() time.Duration {
	if v := s.rtProp.Get(); v > 0 {
		return time.Duration(v)
	}
	if s.srtt > 0 {
		return s.srtt
	}
	return 40 * time.Millisecond
}

// OnSent implements cc.Controller.
func (s *Sender) OnSent(now time.Duration, seq uint64, inflight int) {
	s.now = now
	s.bbr.OnSent(now, seq, inflight)
}

// OnLoss implements cc.Controller: like BBR, PBE-CC reacts to loss only
// through its rate estimators.
func (s *Sender) OnLoss(l cc.LossSample) {
	s.now = l.Now
	s.bbr.OnLoss(l)
}

// OnAck implements cc.Controller: update the shared estimators, keep the
// embedded BBR warm, and run the mode transitions of §4.2.2-4.2.3.
func (s *Sender) OnAck(a cc.AckSample) {
	s.now = a.Now
	s.srtt = a.SRTT
	if a.RTT > 0 {
		s.rtProp.Update(a.Now, float64(a.RTT))
	}
	if a.DeliveryRate > 0 {
		s.btlBw.Update(a.Now, a.DeliveryRate)
	}
	s.bbr.OnAck(a)

	if a.FeedbackRate <= 0 {
		return // not a PBE receiver; stay in wireless tracking
	}
	switch s.mode {
	case ModeWireless:
		if a.InternetBottleneck {
			s.cfCap = a.FeedbackRate
			// Queue detected inside the Internet: drain at 0.5*BtlBw for
			// one RTprop before competing (§4.2.3).
			s.mode = ModeDrain
			s.drainEnd = a.Now + s.RTprop()
			return
		}
		s.setTarget(a.Now, a.FeedbackRate)
	case ModeDrain:
		s.cfCap = a.FeedbackRate
		if !a.InternetBottleneck {
			// The queue resolved itself before the drain completed.
			s.mode = ModeWireless
			s.setTarget(a.Now, a.FeedbackRate)
			return
		}
		if a.Now >= s.drainEnd {
			s.mode = ModeInternet
			s.bbr.ForceProbeBW(a.Now)
		}
	case ModeInternet:
		s.cfCap = a.FeedbackRate
		if !a.InternetBottleneck {
			// Npkt consecutive in-band packets observed at the mobile:
			// re-enter wireless tracking (§4.2.3).
			s.mode = ModeWireless
			s.setTarget(a.Now, a.FeedbackRate)
		}
	}
}

// setTarget applies fed-back capacity. Upward jumps (new flows finishing,
// carriers activating) ramp linearly over three RTTs from the current
// rate, re-running the §4.1 fair-share approach so competing users have
// time to react; decreases apply immediately (rapid quench).
func (s *Sender) setTarget(now time.Duration, rate float64) {
	if s.MisreportGuard > 0 {
		if bw := s.btlBw.Get(); bw > 0 && rate > s.MisreportGuard*bw {
			rate = s.MisreportGuard * bw
		}
	}
	switch {
	case s.target == 0:
		// Connection start: linear increase from (near) zero.
		s.rampFrom = rate / 16
		s.rampStart = now
	case rate > s.target*1.2:
		s.rampFrom = s.wirelessRate()
		s.rampStart = now
	case rate >= s.target:
		// Small increase: fold into the ongoing ramp target.
	default:
		// Decrease: quench immediately, cancel any ramp.
		s.rampFrom = rate
	}
	s.target = rate
}

// wirelessRate returns the (possibly still ramping) wireless-mode pacing
// rate.
func (s *Sender) wirelessRate() float64 {
	if s.target <= 0 {
		return 0
	}
	if s.rampFrom >= s.target {
		return s.target
	}
	dur := rampRTTs * s.srtt
	if dur < 30*time.Millisecond {
		dur = 30 * time.Millisecond
	}
	el := s.now - s.rampStart
	if el >= dur {
		return s.target
	}
	f := float64(el) / float64(dur)
	return s.rampFrom + (s.target-s.rampFrom)*f
}

// PacingRate implements cc.Controller.
func (s *Sender) PacingRate() float64 {
	switch s.mode {
	case ModeWireless:
		return s.wirelessRate()
	case ModeDrain:
		if bw := s.btlBw.Get(); bw > 0 {
			return bw / 2
		}
		return s.target / 2
	default: // ModeInternet
		r := s.bbr.PacingRate()
		// Eqn 7 caps the probing rate at min{1.25*BtlBw, C_f}; this
		// implementation applies the C_f ceiling to the whole
		// Internet-mode rate, which subsumes the probe cap and keeps the
		// sender strictly less aggressive than BBR (§4.3).
		if s.cfCap > 0 && r > s.cfCap {
			r = s.cfCap
		}
		return r
	}
}

// CWND implements cc.Controller: in wireless mode the window caps inflight
// at the BDP of the fed-back capacity (plus HARQ allowance), the
// mechanism that keeps queues empty even when feedback is delayed (§4).
func (s *Sender) CWND() int {
	switch s.mode {
	case ModeWireless:
		rate := s.wirelessRate()
		if rate <= 0 {
			return cc.InitialCwnd
		}
		w := cc.BDPBytes(rate, s.RTprop()+harqCwndAllowance)
		w += w / 4
		w += 4 * netsim.MSS
		if w < cc.MinCwnd {
			w = cc.MinCwnd
		}
		return w
	case ModeDrain:
		w := cc.BDPBytes(s.PacingRate(), s.RTprop()) + 4*netsim.MSS
		if w < cc.MinCwnd {
			w = cc.MinCwnd
		}
		return w
	default:
		return s.bbr.CWND()
	}
}
