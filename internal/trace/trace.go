// Package trace generates the workloads of the paper's evaluation:
// control-plane user populations calibrated to Figure 7, the diurnal
// active-user counts of Figure 11(a), and the physical-rate population of
// Figure 11(b). All generators are driven by the simulation engine's
// seeded randomness, so runs are reproducible.
package trace

import (
	"math"
	"math/rand"
	"time"

	"pbecc/internal/ran"
)

// Control-traffic population parameters matched to Figure 7(b):
// 68.2% of detected users are active for exactly one subframe; 47.7%
// occupy exactly four PRBs (one RBG at 20 MHz); longer-lived control users
// stay at one RBG so PBE-CC's P_a filter removes them.
const (
	oneSubframeFrac  = 0.682
	fourPRBShortFrac = 0.25 // short users with exactly one RBG
	twoRBGShortFrac  = 0.45
	longUserMeanDur  = 8
	longUserMaxDur   = 40
)

// Arrival presets: a busy 20 MHz cell shows ~15.8 distinct active users
// per 40 ms window (Figure 7a), an idle late-night cell close to none.
const (
	BusyArrivalPerMs = 0.37
	IdleArrivalPerMs = 0.015
)

// ControlTraffic is a ran.ControlSource producing the calibrated
// control-plane population.
type ControlTraffic struct {
	ArrivalPerMs float64

	active   []ctrlUser
	grants   []ran.ControlGrant // Tick's result, reused
	nextRNTI uint32
}

type ctrlUser struct {
	rnti      uint16
	rbgs      int
	remaining int
}

// NewControlTraffic returns a source with the given Poisson arrival rate
// of control users per subframe.
func NewControlTraffic(arrivalPerMs float64) *ControlTraffic {
	return &ControlTraffic{ArrivalPerMs: arrivalPerMs, nextRNTI: 0x4000}
}

// Busy returns a source calibrated to the paper's busy daytime cell.
func Busy() *ControlTraffic { return NewControlTraffic(BusyArrivalPerMs) }

// Idle returns a source calibrated to a late-night cell.
func Idle() *ControlTraffic { return NewControlTraffic(IdleArrivalPerMs) }

// Tick implements ran.ControlSource.
func (c *ControlTraffic) Tick(subframe int, rng *rand.Rand) []ran.ControlGrant {
	for n := poisson(rng, c.ArrivalPerMs); n > 0; n-- {
		c.spawn(rng)
	}
	grants := c.grants[:0]
	out := c.active[:0]
	for i := range c.active {
		u := &c.active[i]
		grants = append(grants, ran.ControlGrant{RNTI: u.rnti, RBGs: u.rbgs})
		u.remaining--
		if u.remaining > 0 {
			out = append(out, *u)
		}
	}
	c.active = out
	c.grants = grants
	return grants
}

func (c *ControlTraffic) spawn(rng *rand.Rand) {
	c.nextRNTI++
	if c.nextRNTI > 0xFFF0 {
		c.nextRNTI = 0x4000
	}
	u := ctrlUser{rnti: uint16(c.nextRNTI)}
	if rng.Float64() < oneSubframeFrac {
		u.remaining = 1
		r := rng.Float64()
		switch {
		case r < fourPRBShortFrac:
			u.rbgs = 1
		case r < fourPRBShortFrac+twoRBGShortFrac:
			u.rbgs = 2
		default:
			u.rbgs = 3
		}
	} else {
		// Longer-lived parameter-update users: small allocation so the
		// Ta/Pa filter removes them, geometric duration.
		u.rbgs = 1
		u.remaining = 2 + geometric(rng, 1.0/float64(longUserMeanDur))
		if u.remaining > longUserMaxDur {
			u.remaining = longUserMaxDur
		}
	}
	c.active = append(c.active, u)
}

// poisson samples a Poisson variate by Knuth's method (lambda is small).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// geometric samples a geometric variate with success probability p
// (support 0,1,2,...).
func geometric(rng *rand.Rand, p float64) int {
	if p <= 0 || p >= 1 {
		return 0
	}
	return int(math.Log(1-rng.Float64()) / math.Log(1-p))
}

// diurnal20 and diurnal10 approximate Figure 11(a): distinct active users
// per hour of day for the 20 MHz and 10 MHz cells. The 10 MHz cell is
// switched off by the operator between midnight and 3 am.
var diurnal20 = [24]int{
	45, 30, 20, 13, 18, 32, 60, 92, 120, 150, 170, 181,
	195, 205, 233, 212, 195, 198, 203, 185, 150, 112, 80, 58,
}

var diurnal10 = [24]int{
	6, 0, 0, 0, 9, 18, 34, 50, 66, 80, 90, 97,
	100, 110, 135, 121, 104, 100, 106, 95, 78, 58, 34, 15,
}

// DiurnalUsers returns the expected number of distinct users communicating
// with a cell of the given bandwidth (in PRBs: 100 = 20 MHz, 50 = 10 MHz)
// during the given hour of day (0-23).
func DiurnalUsers(nprb, hour int) int {
	h := ((hour % 24) + 24) % 24
	if nprb >= 75 {
		return diurnal20[h]
	}
	return diurnal10[h]
}

// Session-churn parameters for the metro workload: data sessions arrive
// and depart continuously, with short-lived sessions dominating the
// population the way short control-plane users dominate Figure 7. Mean
// on-time is under a second; off-times are a little longer, so roughly
// 40% of background users transmit at any instant - the churn that makes
// a cell's free capacity move on PBE-CC's measurement timescale.
const (
	sessionOnMean  = 700 * time.Millisecond
	sessionOffMean = 1100 * time.Millisecond
	sessionMin     = 100 * time.Millisecond
	sessionMax     = 4 * time.Second
)

// SessionOnOff draws one background user's on/off cycle durations:
// exponentially distributed (memoryless arrivals/departures), clamped to
// keep a single user from either flapping every subframe or squatting
// for a whole scenario. Used by the metro family's churning population.
func SessionOnOff(rng *rand.Rand) (on, off time.Duration) {
	draw := func(mean time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if d < sessionMin {
			d = sessionMin
		}
		if d > sessionMax {
			d = sessionMax
		}
		return d
	}
	return draw(sessionOnMean), draw(sessionOffMean)
}

// SampleUserRate draws a user's physical data rate in Mbit/s/PRB from the
// population of Figure 11(b): a majority of low-rate users (77.4% and
// 71.9% below half the 1.8 Mbit/s/PRB maximum for the 10 and 20 MHz
// cells) with a high-rate tail.
func SampleUserRate(rng *rand.Rand) float64 {
	r := rng.Float64()
	switch {
	case r < 0.50:
		return 0.05 + rng.Float64()*0.45 // deep low-rate mass
	case r < 0.74:
		return 0.5 + rng.Float64()*0.4 // below half max
	default:
		return 0.9 + rng.Float64()*0.9 // high-rate tail up to 1.8
	}
}
