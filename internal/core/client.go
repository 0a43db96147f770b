package core

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/netsim"
)

// Bottleneck-state detection constants of §4.2.2: the switching threshold
// is D_th = D_prop + 3*8 ms (three HARQ retransmissions) + 3 ms (jitter,
// the 94.1th percentile of measured jitter).
const (
	RetxAllowance   = 24 * time.Millisecond
	JitterAllowance = 3 * time.Millisecond
	DpropWindow     = 10 * time.Second
	// NpktSubframes is Eqn 6's horizon: the threshold on consecutive
	// out-of-band packets is the number of packets sent in six subframes
	// at the current rate.
	NpktSubframes = 6
)

// Detector tracks one-way delay at the receiver and decides which state
// the connection is in: wireless bottleneck (false) or Internet bottleneck
// (true).
type Detector struct {
	dprop cc.WindowedMin

	internet   bool
	aboveCount int
	belowCount int

	// Transitions counts state switches (instrumentation).
	Transitions int
}

// NewDetector returns a detector with the paper's 10-second D_prop window.
func NewDetector() *Detector {
	return &Detector{dprop: cc.WindowedMin{Window: DpropWindow}}
}

// Dprop returns the current propagation-delay estimate.
func (d *Detector) Dprop() time.Duration { return time.Duration(d.dprop.Get()) }

// Threshold returns D_th.
func (d *Detector) Threshold() time.Duration {
	return d.Dprop() + RetxAllowance + JitterAllowance
}

// InternetBottleneck returns the current state.
func (d *Detector) InternetBottleneck() bool { return d.internet }

// Observe folds in one packet's one-way delay; npkt is the Eqn 6
// consecutive-packet threshold at the current rate. It returns the state
// after this packet.
func (d *Detector) Observe(now time.Duration, owd time.Duration, npkt int) bool {
	d.dprop.Update(now, float64(owd))
	if npkt < 3 {
		npkt = 3
	}
	th := d.Threshold()
	if owd > th {
		d.aboveCount++
		d.belowCount = 0
	} else {
		d.belowCount++
		d.aboveCount = 0
	}
	if !d.internet && d.aboveCount >= npkt {
		d.internet = true
		d.Transitions++
		d.aboveCount = 0
	} else if d.internet && d.belowCount >= npkt {
		d.internet = false
		d.Transitions++
		d.belowCount = 0
	}
	return d.internet
}

// Client is the PBE-CC mobile-side module: it combines the capacity
// monitor with the bottleneck detector and produces the per-ACK feedback
// (§5). It implements cc.FeedbackSource.
type Client struct {
	Monitor  *Monitor
	Detector *Detector

	// InternetTime accumulates time spent in the Internet-bottleneck
	// state, and lastObserve the previous observation instant; together
	// they reproduce the §6.3.1 state-residency statistic.
	InternetTime time.Duration
	TotalTime    time.Duration
	lastObserve  time.Duration
}

// NewClient wires a client around a monitor and counts it there as one
// more of the device's connections.
func NewClient(mon *Monitor) *Client {
	mon.clients++
	return &Client{Monitor: mon, Detector: NewDetector()}
}

// Feedback implements cc.FeedbackSource: called per received data packet,
// it returns the quantized capacity feedback in bits/sec and the
// bottleneck-state bit. A device's connections share its capacity
// equally (§6.3.4): with n clients on the monitor each feeds back 1/n of
// the quantized rate.
func (c *Client) Feedback(now time.Duration, owd time.Duration, dataBytes int) (float64, bool) {
	ct := c.Monitor.CapacityBits() // bits per subframe
	npkt := int(NpktSubframes * ct / (8 * netsim.MSS))
	internet := c.Detector.Observe(now, owd, npkt)

	if c.lastObserve > 0 {
		dt := now - c.lastObserve
		c.TotalTime += dt
		if internet {
			c.InternetTime += dt
		}
	}
	c.lastObserve = now

	rate := ct
	if internet {
		// In the Internet-bottleneck state the mobile feeds back the
		// fair-share capacity C_f, the cap of Eqn 7.
		rate = c.Monitor.FairShareBits()
	} else if cf := c.Monitor.FairShareBits(); cf > rate {
		// Wireless state: never settle below the Eqn 2 fair share. Eqn 3
		// alone has a stable fixed point below the fair share when an
		// always-backlogged competitor absorbs every subframe in which
		// this user's paced queue momentarily drains; the base station's
		// fairness policy grants P_cell/N to any user that offers that
		// load (§4.1, §4.3), so C_f is a sound lower bound.
		rate = cf
	}
	return QuantizeRate(BitsPerSubframeToBps(rate)) / float64(max(c.Monitor.clients, 1)), internet
}

// InternetFraction returns the fraction of observed time spent in the
// Internet-bottleneck state (the §6.3.1 statistic: 18% busy, 4% idle).
func (c *Client) InternetFraction() float64 {
	if c.TotalTime <= 0 {
		return 0
	}
	return float64(c.InternetTime) / float64(c.TotalTime)
}
