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
//     re-evaluated once per monitor smoothing window (core.Window
//     subframes, 40 ms), not per packet: between updates the envelope is
//     a constant rate.
//
//   - Modeled is the nation-scale tier: fluid-only cells with no
//     packet-level counterpart at all. They read nothing from the packet
//     world and write nothing to it, so they need no event loop: a chunk
//     accounts a whole run's windows in one pass over its sessions, each
//     session walking its on/off chain across the windows once - one
//     visit per session per run instead of an event per packet or a scan
//     per window - which is what lets a scenario model 64k+ cells and a
//     million users in CI-feasible wall-clock.
//
// Session parameters are drawn from the paper's measured user
// populations: per-user physical rates from trace.SampleUserRate
// (Figure 11(b)) and session on/off cycles from trace.SessionOnOff
// (Figure 7-style short-session dominance). All draws come from a
// scenario-seeded source before the population advances, so a fluid
// population is a pure function of its seed and results stay
// byte-identical for any worker or shard width.
package fluid

import (
	"fmt"
	"math"
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
const DefaultWindow = core.Window * time.Millisecond

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

// step walks an on/off chain through every toggle at or before t. A
// chain starts off with its first toggle at the session's phase and then
// cycles on-first: on for onDur, off for offDur. At every t it agrees
// with the closed form "t >= phase && (on+off == 0 || (t-phase) % (on+off)
// < on)", so a zero on time stays off, a zero off time stays on, and a
// chain with both zero turns on at its phase and stops there. Durations
// must be non-negative; t must not decrease from one call to the next.
func step[T ~uint32 | ~int64](on bool, next, t, onDur, offDur T) (bool, T) {
	for next <= t {
		switch {
		case !on:
			on, next = true, next+onDur
		case onDur == 0 && offDur == 0:
			return true, next
		default:
			on, next = false, next+offDur
		}
	}
	return on, next
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
	next     []time.Duration // each session's next on/off toggle
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
// uncapped). Every session's On and Off must be non-negative, as
// harness.Scenario.Validate checks.
func NewCellProcess(sessions []Session, window time.Duration, maxBacklogBits float64) *CellProcess {
	if window <= 0 {
		window = DefaultWindow
	}
	p := &CellProcess{
		window:     window,
		maxBacklog: maxBacklogBits,
		sessions:   sessions,
		active:     make([]bool, len(sessions)),
		next:       make([]time.Duration, len(sessions)),
		backlog:    make([]float64, len(sessions)),
	}
	for i, s := range sessions {
		p.next[i] = s.Phase
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
			s := &p.sessions[i]
			on, next := step(p.active[i], p.next[i], p.nextUpdate, s.On, s.Off)
			p.active[i], p.next[i] = on, next
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
// modeled tier, so a million sessions fit in 16 MiB: the session's rate,
// its on/off/phase times in milliseconds, and its on/off chain (see
// step): whether the envelope is on and the millisecond of its next
// toggle.
type modeledSession struct {
	rateBps float32
	next    uint32
	onMs    uint16
	offMs   uint16
	phaseMs uint16
	on      uint8 // 1 while the envelope is on, else 0
}

// newModeledSession builds a session from millisecond times, its chain
// at the start.
func newModeledSession(rateBps float32, onMs, offMs, phaseMs uint16) modeledSession {
	return modeledSession{rateBps: rateBps, next: uint32(phaseMs), onMs: onMs, offMs: offMs, phaseMs: phaseMs}
}

// overflow names the first time DrawModeled cannot store in uint16.
func overflow(onMs, offMs, phaseMs int64) string {
	field, v := "phase", phaseMs
	if uint64(onMs) > math.MaxUint16 {
		field, v = "on", onMs
	} else if uint64(offMs) > math.MaxUint16 {
		field, v = "off", offMs
	}
	return fmt.Sprintf("fluid: modeled session %s time %d ms does not fit uint16", field, v)
}

// restart puts the chain back at its start: off, first toggle at the phase.
func (s *modeledSession) restart() { s.on, s.next = 0, uint32(s.phaseMs) }

// stepTo steps the chain through every toggle at or before t.
func (s *modeledSession) stepTo(t uint32) {
	on, next := step(s.on != 0, s.next, t, uint32(s.onMs), uint32(s.offMs))
	s.next, s.on = next, 0
	if on {
		s.on = 1
	}
}

// maxBlockSessions caps a block of the modeled population at 64 KiB. As
// one 16 MiB object, a nation population drawn over and over left peak
// RSS at about 33 or 44 MB, depending on whether the collector had freed
// the previous population before the next was drawn; blocks this size
// are reused piecemeal.
const maxBlockSessions = (64 << 10) / 16

// maxChainMs is the latest window start a chain can step to: a uint32
// toggle time stays representable one uint16 duration beyond it.
const maxChainMs = math.MaxUint32 - math.MaxUint16

// Modeled is the nation-scale fluid-only tier: a population of
// background cells whose aggregate rate processes are accounted once per
// window with no per-slot scheduling at all. They read nothing from the
// packet world and write nothing back, so they need no engine: split the
// population into chunks with Chunks and advance each chunk through a
// run's windows with AdvanceWindows.
type Modeled struct {
	Window       time.Duration
	Cells        int
	UsersPerCell int

	// blocks hold the sessions in order, at most maxBlockSessions each:
	// whole cells when a cell fits in one block, and blockLen sessions in
	// every block but the last.
	blocks   [][]modeledSession
	blockLen int
	chunks   []*ModeledChunk
}

// DrawModeled draws a modeled population of cells x perCell sessions
// from the paper's user-rate and session-churn distributions. Rates are
// two PRBs' worth of trace.SampleUserRate, matching the packet-level
// churn population of the metro family; phases are uniform over each
// session's cycle so the population starts in steady state. The draw
// order is fixed, so the population is a pure function of rng's seed.
// Times are stored in milliseconds; DrawModeled panics, naming the field,
// on one that does not fit uint16.
func DrawModeled(cells, perCell int, rng *rand.Rand, window time.Duration) *Modeled {
	if window <= 0 {
		window = DefaultWindow
	}
	m := &Modeled{Window: window, Cells: cells, UsersPerCell: perCell, blockLen: maxBlockSessions}
	if perCell > 0 && perCell <= maxBlockSessions {
		m.blockLen = maxBlockSessions / perCell * perCell
	}
	n := cells * perCell
	m.blocks = make([][]modeledSession, 0, (n+m.blockLen-1)/m.blockLen)
	for lo := 0; lo < n; lo += m.blockLen {
		// Each block is filled right after it is allocated, while it is
		// still in cache.
		b := make([]modeledSession, min(m.blockLen, n-lo))
		for i := range b {
			rate := trace.SampleUserRate(rng) * 2e6
			on, off := trace.SessionOnOff(rng)
			phase := time.Duration(rng.Int63n(int64(on + off)))
			onMs, offMs, phaseMs := on.Milliseconds(), off.Milliseconds(), phase.Milliseconds()
			if uint64(onMs|offMs|phaseMs) > math.MaxUint16 {
				panic(overflow(onMs, offMs, phaseMs))
			}
			b[i] = newModeledSession(float32(rate), uint16(onMs), uint16(offMs), uint16(phaseMs))
		}
		m.blocks = append(m.blocks, b)
	}
	return m
}

// Chunks partitions the population into n chunks (cell boundaries are
// respected, so one cell's sessions never straddle two chunks). The
// partition depends only on (population, n) and fixes the order in which
// each chunk sums its offered bits, so a caller reproduces a result only
// at the same n; the harness passes the scenario's shard count, a pure
// function of the topology. A population that earlier chunks advanced
// starts over from its draw.
func (m *Modeled) Chunks(n int) []*ModeledChunk {
	if n < 1 {
		n = 1
	}
	if n > m.Cells {
		n = m.Cells
	}
	for _, ch := range m.chunks {
		if ch.started {
			for _, b := range m.blocks {
				for i := range b {
					b[i].restart()
				}
			}
			break
		}
	}
	m.chunks = make([]*ModeledChunk, 0, n)
	per := m.UsersPerCell
	for c := 0; c < n; c++ {
		loCell := m.Cells * c / n
		hiCell := m.Cells * (c + 1) / n
		m.chunks = append(m.chunks, &ModeledChunk{
			window: m.Window,
			cells:  hiCell - loCell,
			blocks: m.span(loCell*per, hiCell*per),
		})
	}
	return m.chunks
}

// span returns the block slices that hold sessions [lo, hi), in order.
func (m *Modeled) span(lo, hi int) [][]modeledSession {
	var out [][]modeledSession
	for lo < hi {
		b := lo / m.blockLen
		off := lo - b*m.blockLen
		end := min(len(m.blocks[b]), off+hi-lo)
		out = append(out, m.blocks[b][off:end])
		lo += end - off
	}
	return out
}

// Stats sums every chunk's accounting in chunk order (deterministic
// float summation). Call it once the chunks are advanced.
func (m *Modeled) Stats() Stats {
	s := Stats{Sessions: m.Cells * m.UsersPerCell, Cells: m.Cells}
	for _, ch := range m.chunks {
		s.OfferedBits += ch.offeredBits
		s.EnvelopeUpdates += ch.windows
		s.SessionOnWindows += ch.onWindows
	}
	return s
}

// ModeledChunk is a cell-contiguous slice of a modeled population. It is
// not safe for concurrent use: one goroutine advances it at a time.
type ModeledChunk struct {
	window  time.Duration
	cells   int
	blocks  [][]modeledSession
	started bool   // the chains have been stepped
	lastMs  uint32 // the window start they were stepped to

	// A batch's scratch: the window starts that step the chains, in
	// milliseconds; each one's offered bits; and the difference array of
	// its on-count (an on run over windows [i, j) adds 1 at i, -1 at j).
	starts []uint32
	acc    []float64
	diff   []int64

	offeredBits float64
	windows     uint64
	onWindows   uint64
}

// Advance accounts one envelope window ending at virtual time now; it is
// AdvanceWindows with a batch of one.
func (ch *ModeledChunk) Advance(now time.Duration) {
	ch.AdvanceWindows([]time.Duration{now})
}

// AdvanceWindows accounts one envelope window ending at each of ends, in
// order: every session on at a window's start offers rate x window bits
// in it. Window starts must not decrease from one window to the next;
// one before zero finds every session off. The result - accounting,
// chains and panics - is that of one Advance call per window, but each
// session is visited once per batch, not once per window.
func (ch *ModeledChunk) AdvanceWindows(ends []time.Duration) {
	// Check the starts as per-window calls would; the windows before a
	// bad one are still accounted before the panic.
	var bad string
	ch.starts = ch.starts[:0]
	for k, now := range ends {
		startMs := (now - ch.window).Milliseconds()
		if startMs < 0 && !ch.started {
			continue
		}
		if startMs < int64(ch.lastMs) || startMs > maxChainMs {
			bad = fmt.Sprintf("fluid: modeled window start %d ms after %d ms (chains step forward, to at most %d ms)",
				startMs, ch.lastMs, maxChainMs)
			ends = ends[:k]
			break
		}
		ch.started, ch.lastMs = true, uint32(startMs)
		ch.starts = append(ch.starts, uint32(startMs))
	}
	// Windows before the first that steps the chains offer nothing.
	ch.walk()
	var on int64
	var onWindows, offered uint64
	for k, bits := range ch.acc {
		on += ch.diff[k]
		onWindows += uint64(on)
		ch.offeredBits += bits
		offered += uint64(bits)
	}
	ch.onWindows += onWindows
	ch.windows += uint64(ch.cells) * uint64(len(ends))
	mEnvelopeUpdates.Add(uint64(ch.cells) * uint64(len(ends)))
	mOfferedBits.Add(offered)
	mSessionWindows.Add(onWindows)
	if bad != "" {
		panic(bad)
	}
}

// walk accounts the windows starting at ch.starts into ch.acc and
// ch.diff. Each session, in session order, walks its chain across the
// batch once, a run of windows at a time: it steps where a window start
// reaches its next toggle, finds the run's end by index arithmetic, and
// adds its bits to every window of an on run. So every window's sum
// receives the terms of a per-window pass over the on sessions, in the
// same order, with exact +0 terms between them, which change no bit
// (DESIGN.md §10).
func (ch *ModeledChunk) walk() {
	ts := ch.starts
	n := len(ts)
	ch.acc = resize(ch.acc, n)
	ch.diff = resize(ch.diff, n+1)
	acc, diff := ch.acc, ch.diff
	if n == 0 {
		return
	}
	winSec := ch.window.Seconds()
	// A run's end is guessed from starts one window apart; a reciprocal
	// of the window in milliseconds spares the guess a division.
	inv := math.MaxUint32 / uint64(max(ch.window.Milliseconds(), 1))
	last := ts[n-1]
	for _, b := range ch.blocks {
		for i := range b {
			s := &b[i]
			// The explicit conversion rounds the product on its own, so
			// it is never fused into the addition below.
			bits := float64(float64(s.rateBps) * winSec)
			onMs, offMs := uint32(s.onMs), uint32(s.offMs)
			o, next := s.on, s.next // o is 1 while the chain is on
			stepped := false
			for k := 0; k < n; {
				if ts[k] >= next {
					var on bool
					on, next = step(o != 0, next, ts[k], onMs, offMs)
					o, stepped = 0, true
					if on {
						o = 1
					}
				}
				// The run lasts until a start reaches the next toggle; a
				// stopped chain (on + off = 0) stays on to the end.
				end := n
				if next <= last && (o == 0 || onMs|offMs != 0) {
					end = runEnd(ts, k, next, inv)
				}
				// A run's first window takes bits x o, an exact +0 when
				// off, which spares a branch; an on run's others take bits.
				acc[k] += bits * float64(o)
				diff[k] += int64(o)
				diff[end] -= int64(o)
				stop := k + 1
				if o != 0 {
					stop = end
				}
				for j := range acc[k+1 : stop] {
					acc[k+1+j] += bits
				}
				k = end
			}
			if stepped {
				s.next, s.on = next, o
			}
		}
	}
}

// runEnd returns the first index after k whose start is at or after t,
// where ts[k] < t <= the last start. It guesses from starts evenly spaced
// w ms apart, as a run's windows are, with inv = (2^32-1)/w: the guess is
// then exact or one short. A guess off by more is corrected by stepping.
func runEnd(ts []uint32, k int, t uint32, inv uint64) int {
	j := min(k+1+int(uint64(t-ts[k]-1)*inv>>32), len(ts)-1)
	for j > k+1 && ts[j-1] >= t {
		j--
	}
	for ts[j] < t {
		j++
	}
	return j
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T int64 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
