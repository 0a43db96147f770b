package phy

import (
	"math"
	"math/rand"
	"time"
)

// Fading is a first-order Gauss-Markov process describing slow channel
// variation around a mean, in dB. Successive samples at interval dt are
// correlated with coefficient exp(-dt/tau), where tau is the coherence time.
type Fading struct {
	SigmaDB   float64       // standard deviation of the dB offset
	Coherence time.Duration // correlation time constant
	state     float64
	rng       *rand.Rand
}

// NewFading returns a fading process with the given deviation and coherence
// time, using rng for noise. A nil rng yields a process that always returns
// zero offset (useful for deterministic tests).
func NewFading(sigmaDB float64, coherence time.Duration, rng *rand.Rand) *Fading {
	return &Fading{SigmaDB: sigmaDB, Coherence: coherence, rng: rng}
}

// Step advances the process by dt and returns the new dB offset.
func (f *Fading) Step(dt time.Duration) float64 {
	if f.flat() {
		return 0
	}
	tau := f.Coherence
	if tau <= 0 {
		tau = 50 * time.Millisecond
	}
	rho := math.Exp(-float64(dt) / float64(tau))
	f.state = f.state*rho + f.rng.NormFloat64()*f.SigmaDB*math.Sqrt(1-rho*rho)
	return f.state
}

// flat reports whether Step returns 0 without advancing: no process, no
// noise source or no deviation.
func (f *Fading) flat() bool { return f == nil || f.rng == nil || f.SigmaDB == 0 }

// TrajectorySegment linearly interpolates RSSI between two instants.
type TrajectorySegment struct {
	Start, End time.Duration
	FromDBm    float64
	ToDBm      float64
}

// Trajectory is a piecewise-linear RSSI-versus-time path, used to model
// client mobility. Outside all segments the nearest endpoint value holds.
type Trajectory []TrajectorySegment

// At returns the RSSI in dBm at virtual time t.
func (tr Trajectory) At(t time.Duration) float64 {
	if len(tr) == 0 {
		return -85
	}
	if t <= tr[0].Start {
		return tr[0].FromDBm
	}
	for _, s := range tr {
		if t >= s.Start && t < s.End {
			frac := float64(t-s.Start) / float64(s.End-s.Start)
			return s.FromDBm + frac*(s.ToDBm-s.FromDBm)
		}
	}
	return tr[len(tr)-1].ToDBm
}

// PaperMobilityTrajectory reproduces the experiment of §6.3.2: hold at
// -85 dBm for 13 s, move to -105 dBm over the next 13 s, return to -85 dBm
// in 4 s, and hold for the final 10 s (40 s total).
func PaperMobilityTrajectory() Trajectory {
	return Trajectory{
		{Start: 0, End: 13 * time.Second, FromDBm: -85, ToDBm: -85},
		{Start: 13 * time.Second, End: 26 * time.Second, FromDBm: -85, ToDBm: -105},
		{Start: 26 * time.Second, End: 30 * time.Second, FromDBm: -105, ToDBm: -85},
		{Start: 30 * time.Second, End: 40 * time.Second, FromDBm: -85, ToDBm: -85},
	}
}

// Channel produces the per-subframe radio state of one user on one cell:
// SINR (with fading), the MCS the scheduler would select, and the BER that
// drives transport-block errors.
type Channel struct {
	Table      CQITable // read by Step: MCS reports the table of the last Step
	trajectory Trajectory
	staticRSSI float64
	fading     *Fading
	lastRSSI   float64
	lastSINR   float64
	mcs        MCS // MCSFromSINR(lastSINR, Table), computed once per Step

	// held is set once a Step of a channel with no trajectory and flat
	// fading has computed lastSINR and mcs: later Steps return them as
	// they are until Table differs from mcs.Table.
	held bool
}

// NewStaticChannel returns a channel pinned at a fixed RSSI with optional
// fading.
func NewStaticChannel(rssiDBm float64, table CQITable, fading *Fading) *Channel {
	return &Channel{Table: table, staticRSSI: rssiDBm, fading: fading, lastRSSI: rssiDBm, mcs: MCSFromSINR(0, table)}
}

// NewMobileChannel returns a channel following an RSSI trajectory with
// optional fading.
func NewMobileChannel(tr Trajectory, table CQITable, fading *Fading) *Channel {
	c := &Channel{Table: table, trajectory: tr, fading: fading, mcs: MCSFromSINR(0, table)}
	c.lastRSSI = tr.At(0)
	return c
}

// Step advances the channel to virtual time t (called once per subframe)
// and returns the effective SINR in dB.
func (c *Channel) Step(t, dt time.Duration) float64 {
	fixed := c.trajectory == nil && c.fading.flat()
	if fixed && c.held && c.mcs.Table == c.Table {
		return c.lastSINR
	}
	c.held = fixed
	rssi := c.staticRSSI
	if c.trajectory != nil {
		rssi = c.trajectory.At(t)
	}
	c.lastRSSI = rssi
	offset := 0.0
	if c.fading != nil {
		offset = c.fading.Step(dt)
	}
	c.lastSINR = SINRFromRSSI(rssi) + offset
	c.mcs = MCSFromSINR(c.lastSINR, c.Table)
	return c.lastSINR
}

// MCS returns the modulation and coding scheme for the last Step.
func (c *Channel) MCS() MCS { return c.mcs }

// BER returns the fitted bit error rate for the last Step.
func (c *Channel) BER() float64 { return BERFromRSSI(c.lastRSSI) }
