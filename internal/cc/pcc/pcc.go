// Package pcc implements PCC Allegro (Dong et al., NSDI 2015): the sender
// runs randomized controlled micro-experiments, transmitting at perturbed
// rates r(1+eps) and r(1-eps) over consecutive monitor intervals,
// computing the empirical utility of each, and moving the rate in the
// direction that won. The utility is Allegro's throughput-versus-loss
// sigmoid: u(x) = T*Sigmoid_alpha(L-0.05) - x*L with T = x(1-L) and
// alpha = 100.
//
// Losses and acknowledgements are attributed to the monitor interval in
// which the packet was *sent* (as in the paper), so each experiment is
// scored by its own consequences; an interval is scored only after one
// extra RTT has passed for feedback to arrive.
package pcc

import (
	"math"
	"time"

	"pbecc/internal/cc"
)

const (
	eps       = 0.05
	alpha     = 100.0
	lossGuard = 0.05
	minRate   = 0.3e6 // 0.3 Mbit/s floor
	maxStep   = 8     // cap on the moving-state step multiplier
	miHistory = 16
)

type state int

const (
	starting state = iota
	deciding
	moving
)

// miRecord tracks one monitor interval.
type miRecord struct {
	rate     float64
	end      time.Duration
	firstSeq uint64
	lastSeq  uint64
	acked    int
	lost     int
	scored   bool
	trial    int // decision-trial index+1, 0 if not a trial
	epoch    int // state-machine epoch the MI was emitted in
}

// PCC is the Allegro controller. Create with New.
type PCC struct {
	state state
	rate  float64 // base rate, bits/sec

	cur     *miRecord
	history []*miRecord

	miDur    time.Duration
	srtt     time.Duration
	lastUtil float64
	haveUtil bool

	trialsEmitted int
	trialUtils    [4]float64
	trialSeen     int

	dir   int
	step  int
	epoch int // bumped on every rate or state change
}

// New returns a PCC Allegro controller.
func New() *PCC {
	return &PCC{state: starting, rate: 2 * minRate, miDur: 20 * time.Millisecond}
}

// utility computes Allegro's utility for a monitor interval.
func utility(rate float64, acked, lost int) float64 {
	total := acked + lost
	var l float64
	if total > 0 {
		l = float64(lost) / float64(total)
	}
	x := rate / 1e6 // work in Mbit/s for numeric sanity
	t := x * (1 - l)
	return t*sigmoid(alpha*(l-lossGuard)) - x*l
}

func sigmoid(y float64) float64 { return 1 / (1 + math.Exp(y)) }

// trialRate returns the sending rate for trial slot t (1-4): odd slots
// probe up, even slots probe down; slot 0 is the base rate.
func (p *PCC) trialRate(t int) float64 {
	switch {
	case t == 0:
		return p.rate
	case t%2 == 1:
		return p.rate * (1 + eps)
	default:
		return p.rate * (1 - eps)
	}
}

// OnSent implements cc.Controller: attribute the packet to the current MI.
func (p *PCC) OnSent(now time.Duration, seq uint64, inflight int) {
	if p.cur == nil || now >= p.cur.end {
		p.rotateMI(now)
	}
	if p.cur.firstSeq == 0 {
		p.cur.firstSeq = seq
	}
	p.cur.lastSeq = seq
}

// rotateMI closes the current MI (it will be scored once feedback has had
// an RTT to arrive) and opens the next one at the state machine's rate.
func (p *PCC) rotateMI(now time.Duration) {
	if p.cur != nil {
		p.history = append(p.history, p.cur)
		if len(p.history) > miHistory {
			p.history = p.history[1:]
		}
	}
	trial := 0
	if p.state == deciding && p.trialsEmitted < 4 {
		p.trialsEmitted++
		trial = p.trialsEmitted
	}
	p.cur = &miRecord{rate: p.trialRate(trial), end: now + p.miDur, trial: trial, epoch: p.epoch}
}

// record finds the MI owning seq.
func (p *PCC) record(seq uint64) *miRecord {
	if p.cur != nil && seq >= p.cur.firstSeq && seq <= p.cur.lastSeq && p.cur.firstSeq != 0 {
		return p.cur
	}
	for i := len(p.history) - 1; i >= 0; i-- {
		m := p.history[i]
		if m.firstSeq != 0 && seq >= m.firstSeq && seq <= m.lastSeq {
			return m
		}
	}
	return nil
}

// OnAck implements cc.Controller.
func (p *PCC) OnAck(s cc.AckSample) {
	p.srtt = s.SRTT
	if p.srtt > 0 {
		p.miDur = p.srtt + p.srtt/5
		if p.miDur < 10*time.Millisecond {
			p.miDur = 10 * time.Millisecond
		}
	}
	if m := p.record(s.Seq); m != nil {
		m.acked++
	}
	p.scoreReady(s.Now)
}

// OnLoss implements cc.Controller.
func (p *PCC) OnLoss(l cc.LossSample) {
	if m := p.record(l.Seq); m != nil {
		m.lost++
	}
	p.scoreReady(l.Now)
}

// scoreReady evaluates history MIs whose feedback window has elapsed.
func (p *PCC) scoreReady(now time.Duration) {
	grace := p.srtt + 50*time.Millisecond
	for _, m := range p.history {
		if m.scored || now < m.end+grace {
			continue
		}
		m.scored = true
		p.applyUtility(m, utility(m.rate, m.acked, m.lost))
	}
}

// applyUtility advances the Allegro state machine with one scored MI.
// Intervals emitted before the most recent rate or state change carry an
// older epoch and are ignored: each experiment is judged only by traffic
// sent at the rate under test.
func (p *PCC) applyUtility(m *miRecord, u float64) {
	if m.epoch != p.epoch {
		return
	}
	switch p.state {
	case starting:
		if !p.haveUtil || u >= p.lastUtil {
			p.haveUtil = true
			p.lastUtil = u
			p.rate *= 2
			p.epoch++
		} else {
			p.rate /= 2
			p.enterDeciding()
		}
	case deciding:
		if m.trial == 0 {
			return // stale interval from a previous state
		}
		p.trialUtils[m.trial-1] = u
		p.trialSeen++
		if p.trialSeen >= 4 {
			up := p.trialUtils[0] + p.trialUtils[2]
			down := p.trialUtils[1] + p.trialUtils[3]
			if up > down {
				p.dir = +1
			} else {
				p.dir = -1
			}
			p.step = 1
			p.state = moving
			p.lastUtil = math.Max(up, down) / 2
			p.rate *= 1 + float64(p.dir)*eps
			p.epoch++
		}
	case moving:
		// Keep moving while utility does not get meaningfully worse
		// (a 2% tolerance prevents stalls at flat utility plateaus).
		if u >= p.lastUtil-0.02*math.Abs(p.lastUtil) {
			if u > p.lastUtil {
				p.lastUtil = u
			}
			if p.step < maxStep {
				p.step++
			}
			p.rate *= 1 + float64(p.dir)*eps*float64(p.step)
			p.epoch++
		} else {
			p.enterDeciding()
		}
	}
	if p.rate < minRate {
		p.rate = minRate
	}
}

func (p *PCC) enterDeciding() {
	p.state = deciding
	p.trialsEmitted = 0
	p.trialSeen = 0
	p.haveUtil = false
	p.epoch++
}

// PacingRate implements cc.Controller.
func (p *PCC) PacingRate() float64 {
	if p.cur != nil {
		return p.cur.rate
	}
	return p.trialRate(0)
}

// CWND implements cc.Controller: PCC is rate-based; the window only guards
// against runaway inflight (a half second at the current rate).
func (p *PCC) CWND() int {
	w := int(p.PacingRate() * 0.5 / 8)
	if w < cc.MinCwnd {
		w = cc.MinCwnd
	}
	return w
}
