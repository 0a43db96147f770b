// Package fluid is the hybrid-fidelity background-traffic tier: it
// models churning background populations as aggregate per-cell rate
// envelopes instead of per-packet flows, so simulation event volume
// scales with the *measured* flows rather than with the population.
//
// Two tiers with different fidelity/cost points:
//
//   - CellProcess binds virtual background sessions to a real lte/nr
//     cell through the ran.BackgroundSource hook. Sessions accrue
//     offered bits continuously while their on/off envelope says they
//     are active, enter the cell's water-fill alongside packet users
//     once at least one packet quantum is backlogged, and appear in the
//     per-slot control-channel report under their own RNTI and MCS - so
//     the PBE-CC monitor decodes the same competing load it would see
//     from packet users, while no packet, queue, HARQ process or
//     delivery event ever exists for them. The on/off envelope is
//     re-evaluated once per monitor smoothing window (core.DefaultWindow
//     subframes, 40 ms), not per packet: between updates the envelope is
//     a constant rate.
//
//   - Modeled is the nation-scale tier: fluid-only cells with no
//     packet-level counterpart at all. Their populations advance one
//     window at a time on shard-local tickers - O(sessions) work per
//     40 ms window instead of O(packets) events - which is what lets a
//     scenario model 64k+ cells and a million users in CI-feasible
//     wall-clock.
//
// Session parameters are drawn from the paper's measured user
// populations: per-user physical rates from trace.SampleUserRate
// (Figure 11(b)) and session on/off cycles from trace.SessionOnOff
// (Figure 7-style short-session dominance). All draws happen at
// build/setup time from a scenario-seeded source, so a fluid population
// is a pure function of its seed and results stay byte-identical for
// any worker or shard width.
package fluid

import (
	"math/rand"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/netsim"
	"pbecc/internal/obs"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/trace"
)

// DefaultWindow is the envelope update cadence: the PBE monitor's
// smoothing window (40 subframes at 1 ms), so the background load PBE
// measures moves on exactly the timescale its estimator smooths over.
const DefaultWindow = core.DefaultWindow * time.Millisecond

// QuantumBits is the packetization quantum: a session joins the
// water-fill only once a full MSS-sized packet's worth of bits is
// backlogged, mirroring the duty cycle a packet-level source with the
// same rate would show on the control channel.
const QuantumBits = netsim.MSS * 8

// Metrics (deterministic order-independent sums; see internal/obs).
var (
	mEnvelopeUpdates = obs.NewCounter("fluid.envelope_updates")
	mOfferedBits     = obs.NewCounter("fluid.offered_bits")
	mServedBits      = obs.NewCounter("fluid.served_bits")
	mSessionWindows  = obs.NewCounter("fluid.session_on_windows")
)

// Session is one background user's deterministic rate envelope on a real
// cell: an exponential on/off cycle (clamped by trace.SessionOnOff) at a
// fixed offered rate, starting after a phase delay. RNTI and MCS are
// what the cell's control channel shows while the session holds grants.
type Session struct {
	RNTI    uint16
	MCS     phy.MCS
	RateBps float64
	On, Off time.Duration
	Phase   time.Duration
}

// activeAt reports whether the session's envelope is on at virtual time
// t: off before Phase, then cycling on-first with period On+Off.
func (s *Session) activeAt(t time.Duration) bool {
	if t < s.Phase {
		return false
	}
	cycle := s.On + s.Off
	if cycle <= 0 {
		return true
	}
	return (t-s.Phase)%cycle < s.On
}

// Stats aggregates a scenario's fluid tier: population size and the
// offered/served bit accounting of every envelope.
type Stats struct {
	// Sessions and Cells count the modeled background population:
	// cell-bound sessions plus the modeled-only tier.
	Sessions int
	Cells    int

	// OfferedBits is the load the population generated (rate x on-time);
	// ServedBits the part real cells actually granted capacity for;
	// DroppedBits the backlog discarded at the per-session cap (the fluid
	// analogue of a full RLC queue). Modeled-only cells have no
	// scheduler, so their offered bits are never "served".
	OfferedBits float64
	ServedBits  float64
	DroppedBits float64

	// EnvelopeUpdates counts window-boundary envelope re-evaluations;
	// SessionOnWindows counts (session, window) pairs that were on.
	EnvelopeUpdates  uint64
	SessionOnWindows uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Sessions += other.Sessions
	s.Cells += other.Cells
	s.OfferedBits += other.OfferedBits
	s.ServedBits += other.ServedBits
	s.DroppedBits += other.DroppedBits
	s.EnvelopeUpdates += other.EnvelopeUpdates
	s.SessionOnWindows += other.SessionOnWindows
}

// OfferedMbps returns the population's mean offered rate over a run of
// the given duration, in Mbit/s.
func (s *Stats) OfferedMbps(dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	return s.OfferedBits / dur.Seconds() / 1e6
}

// CellProcess is the per-cell fluid background process bound to a real
// cell: it implements ran.BackgroundSource. Not safe for concurrent use;
// like the cell it feeds, it lives on one shard's event loop.
type CellProcess struct {
	window     time.Duration
	maxBacklog float64

	sessions []Session
	active   []bool
	backlog  []float64

	last       time.Duration // accrued up to this virtual time
	nextUpdate time.Duration

	demand []ran.BackgroundDemand
	idx    []int // demand index -> session index

	stats Stats
}

// NewCellProcess builds the process for one cell. window is the envelope
// update cadence (0 = DefaultWindow); maxBacklogBits caps each session's
// backlog the way a finite per-user RLC queue caps a packet user (0 =
// uncapped).
func NewCellProcess(sessions []Session, window time.Duration, maxBacklogBits float64) *CellProcess {
	if window <= 0 {
		window = DefaultWindow
	}
	p := &CellProcess{
		window:     window,
		maxBacklog: maxBacklogBits,
		sessions:   sessions,
		active:     make([]bool, len(sessions)),
		backlog:    make([]float64, len(sessions)),
	}
	p.stats.Sessions = len(sessions)
	p.stats.Cells = 1
	return p
}

// accrue advances offered-bit accumulation to virtual time t under the
// current envelope flags.
func (p *CellProcess) accrue(t time.Duration) {
	dt := (t - p.last).Seconds()
	if dt <= 0 {
		return
	}
	for i := range p.sessions {
		if !p.active[i] {
			continue
		}
		bits := p.sessions[i].RateBps * dt
		p.stats.OfferedBits += bits
		p.backlog[i] += bits
		if p.maxBacklog > 0 && p.backlog[i] > p.maxBacklog {
			p.stats.DroppedBits += p.backlog[i] - p.maxBacklog
			p.backlog[i] = p.maxBacklog
		}
	}
	p.last = t
}

// Demand implements ran.BackgroundSource: it advances the envelope
// through any window boundaries up to now, accrues offered bits, and
// returns the sessions holding at least one packet quantum of backlog.
func (p *CellProcess) Demand(now time.Duration) []ran.BackgroundDemand {
	for now >= p.nextUpdate {
		p.accrue(p.nextUpdate)
		for i := range p.sessions {
			on := p.sessions[i].activeAt(p.nextUpdate)
			p.active[i] = on
			if on {
				p.stats.SessionOnWindows++
				mSessionWindows.Inc()
			}
		}
		p.stats.EnvelopeUpdates++
		mEnvelopeUpdates.Inc()
		p.nextUpdate += p.window
	}
	p.accrue(now)

	p.demand = p.demand[:0]
	p.idx = p.idx[:0]
	for i := range p.sessions {
		if p.backlog[i] < QuantumBits {
			continue
		}
		p.demand = append(p.demand, ran.BackgroundDemand{
			RNTI: p.sessions[i].RNTI,
			MCS:  p.sessions[i].MCS,
			Bits: int(p.backlog[i]),
		})
		p.idx = append(p.idx, i)
	}
	return p.demand
}

// Serve implements ran.BackgroundSource: the cell granted capacity for
// the i-th demand entry; drain the session's backlog by up to bits.
func (p *CellProcess) Serve(i int, bits int) {
	si := p.idx[i]
	served := float64(bits)
	if served > p.backlog[si] {
		served = p.backlog[si]
	}
	p.backlog[si] -= served
	p.stats.ServedBits += served
	mServedBits.Add(uint64(served))
}

// Stats returns the process's accounting so far.
func (p *CellProcess) Stats() Stats { return p.stats }

// modeledSession is the compact (16-byte) per-session state of the
// modeled tier: a million sessions fit in ~16 MB.
type modeledSession struct {
	rateBps float32
	onMs    uint32
	offMs   uint32
	phaseMs uint32
}

func (m *modeledSession) activeAtMs(tMs int64) bool {
	if tMs < int64(m.phaseMs) {
		return false
	}
	cycle := int64(m.onMs) + int64(m.offMs)
	if cycle <= 0 {
		return true
	}
	return (tMs-int64(m.phaseMs))%cycle < int64(m.onMs)
}

// Modeled is the nation-scale fluid-only tier: a population of
// background cells whose aggregate rate processes advance one window at
// a time with no per-slot scheduling at all. Split it into per-shard
// chunks with Chunks and drive each chunk from its shard's engine.
type Modeled struct {
	Window       time.Duration
	Cells        int
	UsersPerCell int

	sessions []modeledSession
	chunks   []*ModeledChunk
}

// DrawModeled draws a modeled population of cells x perCell sessions
// from the paper's user-rate and session-churn distributions. Rates are
// two PRBs' worth of trace.SampleUserRate, matching the packet-level
// churn population of the metro family; phases are uniform over each
// session's cycle so the population starts in steady state. The draw
// order is fixed, so the population is a pure function of rng's seed.
func DrawModeled(cells, perCell int, rng *rand.Rand, window time.Duration) *Modeled {
	if window <= 0 {
		window = DefaultWindow
	}
	m := &Modeled{Window: window, Cells: cells, UsersPerCell: perCell}
	m.sessions = make([]modeledSession, cells*perCell)
	for i := range m.sessions {
		rate := trace.SampleUserRate(rng) * 2e6
		on, off := trace.SessionOnOff(rng)
		phase := time.Duration(rng.Int63n(int64(on + off)))
		m.sessions[i] = modeledSession{
			rateBps: float32(rate),
			onMs:    uint32(on.Milliseconds()),
			offMs:   uint32(off.Milliseconds()),
			phaseMs: uint32(phase.Milliseconds()),
		}
	}
	return m
}

// Chunks partitions the population into n per-shard chunks (cell
// boundaries are respected, so one cell's sessions never straddle two
// chunks). The partition depends only on (population, n); n is the
// scenario's shard count, itself a pure function of the topology, so
// chunk contents never depend on how many shards advance concurrently.
func (m *Modeled) Chunks(n int) []*ModeledChunk {
	if n < 1 {
		n = 1
	}
	if n > m.Cells {
		n = m.Cells
	}
	m.chunks = make([]*ModeledChunk, 0, n)
	per := m.UsersPerCell
	for c := 0; c < n; c++ {
		loCell := m.Cells * c / n
		hiCell := m.Cells * (c + 1) / n
		m.chunks = append(m.chunks, &ModeledChunk{
			window:   m.Window,
			cells:    hiCell - loCell,
			sessions: m.sessions[loCell*per : hiCell*per],
		})
	}
	return m.chunks
}

// Stats sums every chunk's accounting in chunk order (deterministic
// float summation). Call it after the run; chunks advance on their own
// shards' event loops.
func (m *Modeled) Stats() Stats {
	s := Stats{Sessions: len(m.sessions), Cells: m.Cells}
	for _, ch := range m.chunks {
		s.OfferedBits += ch.offeredBits
		s.EnvelopeUpdates += ch.windows
		s.SessionOnWindows += ch.onWindows
	}
	return s
}

// ModeledChunk is the slice of a modeled population owned by one shard.
// Advance is not safe for concurrent use; schedule it on the owning
// shard's engine.
type ModeledChunk struct {
	window   time.Duration
	cells    int
	sessions []modeledSession

	offeredBits float64
	windows     uint64
	onWindows   uint64
}

// Advance accounts one envelope window ending at virtual time now: every
// session active at the window's start offered rate x window bits.
// Schedule it with engine.Every(window, ...).
func (ch *ModeledChunk) Advance(now time.Duration) {
	startMs := (now - ch.window).Milliseconds()
	winSec := ch.window.Seconds()
	var offered float64
	var on uint64
	for i := range ch.sessions {
		if ch.sessions[i].activeAtMs(startMs) {
			offered += float64(ch.sessions[i].rateBps) * winSec
			on++
		}
	}
	ch.offeredBits += offered
	ch.windows += uint64(ch.cells)
	ch.onWindows += on
	mEnvelopeUpdates.Add(uint64(ch.cells))
	mOfferedBits.Add(uint64(offered))
	mSessionWindows.Add(on)
}
