// Package core implements PBE-CC, the paper's contribution: congestion
// control driven by physical-layer bandwidth measurements taken at the
// mobile endpoint.
//
// Three pieces cooperate:
//
//   - Monitor consumes every cell's per-subframe control information
//     (decoded from the PDCCH) and maintains the capacity estimates of
//     §4.2.1: the fair-share capacity C_f (Eqns 1-2), the available
//     capacity C_p (Eqns 3-4), and the physical-to-transport translation
//     of Eqn 5 with the measured protocol overhead.
//   - Client sits at the receiver: it estimates one-way propagation delay,
//     detects wireless-versus-Internet bottleneck transitions (§4.2.2,
//     Eqn 6), and stamps every ACK with the quantized capacity feedback
//     and the bottleneck-state bit (§5).
//   - Sender paces at the fed-back capacity with a BDP-capped window,
//     ramps linearly to the fair share over three RTTs at connection
//     start (§4.1), and switches to a cellular-tailored BBR when the
//     bottleneck moves into the Internet (§4.2.3).
package core

import (
	"math"
	"slices"

	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// Filter thresholds of §4.2.1: users active for at most FilterMinSubframes
// subframes or with at most FilterMinPRBs average PRBs are control-plane
// chatter and are excluded from the fair-share user count N.
const (
	FilterMinSubframes = 1
	FilterMinPRBs      = 4.0
)

// Window is the averaging window in subframes for Eqn 3's smoothing, "the
// most recent RTprop subframes" (40 for a 40 ms RTT).
const Window = 40

// CellInfo describes one component carrier the monitor decodes.
type CellInfo struct {
	ID   int
	NPRB int
	// SlotsPerSubframe is the cell's scheduling-slot rate relative to the
	// 1 ms LTE subframe: 1 for LTE (and when left zero), 2^µ for a 5G NR
	// cell with numerology µ. The monitor scales each cell's sliding
	// window to cover the same wall-clock span regardless of slot clock,
	// and converts per-slot capacity to the common bits-per-millisecond
	// unit when aggregating across RATs.
	SlotsPerSubframe int
	// CBGBits, when positive, switches the Eqn 5 translation to NR
	// code-block-group retransmission with this group size. Zero keeps the
	// paper's whole-transport-block model (LTE).
	CBGBits int
	// Rate returns the UE's current physical data rate on this cell in
	// bits per PRB per slot (from its own CQI feedback), used before any
	// own allocation appears in the window.
	Rate func() float64
	// BER returns the current bit error rate estimate used by the Eqn 5
	// translation.
	BER func() float64
}

// Monitor tracks per-cell control information over a sliding window and
// produces PBE-CC's capacity estimates. It is not safe for concurrent
// use: in an unsharded scenario everything runs on one event loop, and
// in a sharded one the harness pins the monitor - like the device and
// flows it serves - to the shard of its cells, so every cell feed,
// attach/detach and client read stays on that shard's loop. A monitor
// must never be attached to cells on different shards (the lte/nr
// layers enforce the matching invariant for devices).
type Monitor struct {
	RNTI uint16

	// UseFilter can be disabled for the ablation study of the §4.2.1
	// control-traffic filter.
	UseFilter bool

	// Noise, when non-nil, perturbs the aggregate capacity estimates the
	// monitor reports: CapacityBits and FairShareBits return
	// max(0, Noise(v)). It models imperfect physical-layer measurement
	// (PDCCH decode errors, CQI quantization) and drives the sweep
	// runner's measurement-robustness axis (Zhu et al.'s methodology for
	// measurement-based congestion control).
	Noise func(bits float64) float64

	// tracks are the monitored cells in attachment order, and order
	// their IDs.
	tracks []*cellTrack
	order  []int

	// spare holds detached cells' windows, so a later attach reuses their
	// storage instead of allocating a fresh ring.
	spare []*cellTrack

	// lastCapacity is the value the most recent CapacityBits call
	// returned. The accuracy probe reads it through LastCapacityBits
	// instead of calling CapacityBits itself: a fresh call would draw
	// from the Noise hook's RNG and perturb the simulation it observes.
	lastCapacity float64

	// clients counts the device's connections: the Clients built on it.
	clients int
}

// cellTrack is the sliding window of one cell. The ring holds one sample
// per scheduling slot; its length is Window * SlotsPerSubframe so every
// cell's window spans the same wall-clock time.
type cellTrack struct {
	info CellInfo
	spf  int // slots per subframe (1 for LTE, 2^µ for NR)
	ring []subframeSample
	next int
	fill int

	// Window sums, maintained incrementally.
	sumMyPRBs   int
	sumIdlePRBs int
	sumMyRate   float64
	myRateN     int

	// users has one entry per competing RNTI with an allocation in the
	// window, in no particular order: every reader sums or counts over
	// all of them. A cell has a few dozen live RNTIs at most, so a linear
	// scan beats hashing.
	users []userTrack

	// grants holds the window's competing grants, one entry per RNTI per
	// slot, in slot order, the oldest slot's first. Each sample records
	// how many entries are its own, so evicting a sample pops that many.
	// The ring is kept across resets, so the window stops allocating once
	// it has held its busiest 40 ms.
	grants sim.Ring[userAlloc]
	// slotGrants is scratch for the report being ingested: its competing
	// grants summed per RNTI.
	slotGrants []userAlloc

	// n caches activeUsers(nFiltered); zero until computed, and reset by
	// every report, the only thing that changes users.
	n         int
	nFiltered bool

	// The last Eqn 5 translation of each query, keyed on its exact
	// inputs: a query whose C_p and BER match the previous one's bit for
	// bit gets the previous result, which is what recomputing it would
	// give.
	capMemo, fairMemo eqn5Memo
}

// eqn5Memo remembers one Eqn 5 solve, ct = translate(cp, ber), as float64
// bits. The zero value is already a true entry: Eqn 5 maps C_p = 0 to 0.
type eqn5Memo struct{ cp, ber, ct uint64 }

type subframeSample struct {
	myPRBs int
	myRate float64
	idle   int
	grants int // entries of this sample in cellTrack.grants
}

type userAlloc struct {
	rnti uint16
	prbs int
}

// userTrack accumulates one RNTI's activity within the window.
type userTrack struct {
	rnti      uint16
	subframes int
	prbs      int
}

// user returns the index of rnti's entry in ct.users, -1 when it has none.
func (ct *cellTrack) user(rnti uint16) int {
	for i := range ct.users {
		if ct.users[i].rnti == rnti {
			return i
		}
	}
	return -1
}

// addPRBs adds prbs to rnti's entry of a slot's grants, appending the
// entry on the RNTI's first grant in the slot.
func addPRBs(allocs []userAlloc, rnti uint16, prbs int) []userAlloc {
	for i := range allocs {
		if allocs[i].rnti == rnti {
			allocs[i].prbs += prbs
			return allocs
		}
	}
	return append(allocs, userAlloc{rnti: rnti, prbs: prbs})
}

// NewMonitor returns a monitor for the given UE RNTI.
func NewMonitor(rnti uint16) *Monitor {
	return &Monitor{
		RNTI:      rnti,
		UseFilter: true,
	}
}

// track returns the cell's window, nil when the cell is not monitored.
func (m *Monitor) track(id int) *cellTrack {
	for _, ct := range m.tracks {
		if ct.info.ID == id {
			return ct
		}
	}
	return nil
}

// AttachCell starts monitoring a component carrier. Attaching an
// already-attached cell resets its window (the §4.1 restart when carriers
// are activated).
func (m *Monitor) AttachCell(info CellInfo) {
	spf := info.SlotsPerSubframe
	if spf < 1 {
		spf = 1
	}
	i := slices.Index(m.order, info.ID)
	var ct *cellTrack
	switch n := len(m.spare); {
	case i >= 0:
		ct = m.tracks[i]
	case n > 0:
		ct = m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
	default:
		ct = &cellTrack{}
	}
	ct.reset(info, spf)
	if i < 0 {
		m.tracks = append(m.tracks, ct)
		m.order = append(m.order, info.ID)
	}
}

// reset empties the window for the carrier info describes. The sample
// ring, the grant ring and the user list keep their storage.
func (ct *cellTrack) reset(info CellInfo, spf int) {
	ring := ct.ring
	if n := Window * spf; cap(ring) >= n {
		ring = ring[:n]
		clear(ring)
	} else {
		ring = make([]subframeSample, n)
	}
	grants := ct.grants
	for grants.Len() > 0 {
		grants.PopFront()
	}
	*ct = cellTrack{info: info, spf: spf, ring: ring, users: ct.users[:0],
		grants: grants, slotGrants: ct.slotGrants[:0]}
}

// DetachCell stops monitoring a carrier (deactivation).
func (m *Monitor) DetachCell(id int) {
	if i := slices.Index(m.order, id); i >= 0 {
		m.spare = append(m.spare, m.tracks[i])
		m.tracks = slices.Delete(m.tracks, i, i+1)
		m.order = slices.Delete(m.order, i, i+1)
	}
}

// ActiveCellIDs returns the monitored cell IDs in attachment order.
func (m *Monitor) ActiveCellIDs() []int { return m.order }

// OnSubframe ingests one scheduling interval of a cell's control
// information - a 1 ms subframe for LTE, one slot for NR (the NR cell
// emits one report per slot with the slot index in the Subframe field).
// It has the signature of ran.Monitor so it can be attached to either
// cell type directly.
func (m *Monitor) OnSubframe(rep *ran.SubframeReport) {
	ct := m.track(rep.CellID)
	if ct == nil {
		return
	}
	// Evict the sample leaving the window.
	if ct.fill == len(ct.ring) {
		old := &ct.ring[ct.next]
		ct.sumMyPRBs -= old.myPRBs
		ct.sumIdlePRBs -= old.idle
		if old.myPRBs > 0 {
			ct.sumMyRate -= old.myRate
			ct.myRateN--
		}
		for k := 0; k < old.grants; k++ {
			ua := ct.grants.PopFront()
			i := ct.user(ua.rnti)
			u := &ct.users[i]
			u.subframes--
			u.prbs -= ua.prbs
			if u.subframes == 0 {
				last := len(ct.users) - 1
				ct.users[i] = ct.users[last]
				ct.users = ct.users[:last]
			}
		}
	}

	// Per-user PRB sums are integers, so the order grants are folded in
	// cannot change them.
	s := subframeSample{idle: rep.IdlePRBs()}
	slot := ct.slotGrants[:0]
	for i := range rep.Allocs {
		a := &rep.Allocs[i]
		if a.RNTI == m.RNTI {
			s.myPRBs += a.PRBs
			s.myRate = a.MCS.BitsPerPRB()
			continue
		}
		slot = addPRBs(slot, a.RNTI, a.PRBs)
	}
	ct.slotGrants = slot
	// Insert.
	if s.myPRBs > 0 {
		ct.sumMyRate += s.myRate
		ct.myRateN++
	}
	ct.sumMyPRBs += s.myPRBs
	ct.sumIdlePRBs += s.idle
	for _, ua := range slot {
		if i := ct.user(ua.rnti); i >= 0 {
			ct.users[i].subframes++
			ct.users[i].prbs += ua.prbs
		} else {
			ct.users = append(ct.users, userTrack{rnti: ua.rnti, subframes: 1, prbs: ua.prbs})
		}
		ct.grants.PushBack(ua)
	}
	s.grants = len(slot)
	ct.ring[ct.next] = s
	ct.next = (ct.next + 1) % len(ct.ring)
	if ct.fill < len(ct.ring) {
		ct.fill++
	}
	ct.n = 0
}

// activeUsers returns N for one cell: the filtered competing users plus
// the mobile itself (§4.2.1). With the filter disabled every observed
// user counts (the ablation).
func (ct *cellTrack) activeUsers(useFilter bool) int {
	if ct.n == 0 || ct.nFiltered != useFilter {
		ct.n, ct.nFiltered = ct.countUsers(useFilter), useFilter
	}
	return ct.n
}

func (ct *cellTrack) countUsers(useFilter bool) int {
	n := 1 // self
	for _, u := range ct.users {
		if !useFilter {
			n++
			continue
		}
		avgPRBs := float64(u.prbs) / float64(u.subframes)
		if u.subframes > FilterMinSubframes && avgPRBs > FilterMinPRBs {
			n++
		}
	}
	return n
}

// DetectedUsers returns the number of distinct users seen in the cell's
// window before filtering (for the Figure 7 reproduction), not counting
// the mobile itself.
func (m *Monitor) DetectedUsers(cellID int) int {
	if ct := m.track(cellID); ct != nil {
		return len(ct.users)
	}
	return 0
}

// ActiveUsers returns N for a cell after filtering, including self.
func (m *Monitor) ActiveUsers(cellID int) int {
	if ct := m.track(cellID); ct != nil {
		return ct.activeUsers(m.UseFilter)
	}
	return 0
}

// rw returns the smoothed physical rate R_w in bits per PRB.
func (ct *cellTrack) rw() float64 {
	if ct.myRateN > 0 {
		return ct.sumMyRate / float64(ct.myRateN)
	}
	if ct.info.Rate != nil {
		return ct.info.Rate()
	}
	return 0
}

// CellCapacity returns one cell's contribution to Eqn 3 in physical bits
// per scheduling slot: R_w * (P_a + P_idle/N). For LTE a slot is the 1 ms
// subframe; for NR it is the numerology's slot, so capacities of cells
// with different slot clocks are not directly comparable - use
// CellCapacityPerMs or CapacityBits for cross-RAT aggregation.
func (m *Monitor) CellCapacity(cellID int) float64 {
	if ct := m.track(cellID); ct != nil {
		return ct.capacity(m.UseFilter)
	}
	return 0
}

func (ct *cellTrack) capacity(useFilter bool) float64 {
	if ct.fill == 0 {
		return 0
	}
	w := float64(ct.fill)
	pa := float64(ct.sumMyPRBs) / w
	idle := float64(ct.sumIdlePRBs) / w
	n := float64(ct.activeUsers(useFilter))
	return ct.rw() * (pa + idle/n)
}

// fairShare returns one cell's contribution to Eqn 2 in physical bits per
// scheduling slot: R_w * P_cell/N.
func (ct *cellTrack) fairShare(useFilter bool) float64 {
	n := float64(ct.activeUsers(useFilter))
	return ct.rw() * float64(ct.info.NPRB) / n
}

// CellCapacityPerMs returns one cell's Eqn 3 capacity normalized to the
// common bits-per-millisecond unit: per-slot capacity times the cell's
// slot rate. This is the cross-RAT generalization of the paper's
// per-subframe accounting - an LTE cell contributes its per-subframe
// capacity unchanged, an NR µ=1 cell contributes twice its per-slot
// capacity, and so on.
func (m *Monitor) CellCapacityPerMs(cellID int) float64 {
	if ct := m.track(cellID); ct != nil {
		return ct.capacity(m.UseFilter) * float64(ct.spf)
	}
	return 0
}

// CapacityBits returns C_t: the Eqn 3 available capacity summed over the
// aggregated cells (normalized across slot clocks) and translated to
// transport-layer goodput through Eqn 5, in bits per millisecond.
func (m *Monitor) CapacityBits() float64 {
	var total float64
	for _, ct := range m.tracks {
		total += ct.translate(ct.capacity(m.UseFilter)*float64(ct.spf), &ct.capMemo)
	}
	m.lastCapacity = m.noisy(total)
	return m.lastCapacity
}

// LastCapacityBits returns the most recent CapacityBits result without
// recomputing it. It never draws from the Noise hook, so observers (the
// measurement-accuracy probe) can read the estimate the transport
// actually acted on without perturbing the RNG stream.
func (m *Monitor) LastCapacityBits() float64 { return m.lastCapacity }

// FairShareBits returns C_f of Eqn 2 summed over the aggregated cells and
// translated to transport-layer bits per millisecond.
func (m *Monitor) FairShareBits() float64 {
	var total float64
	for _, ct := range m.tracks {
		total += ct.translate(ct.fairShare(m.UseFilter)*float64(ct.spf), &ct.fairMemo)
	}
	return m.noisy(total)
}

// noisy applies the measurement-noise hook, clamped at zero (a capacity
// estimate can be arbitrarily wrong but never negative).
func (m *Monitor) noisy(v float64) float64 {
	if m.Noise == nil {
		return v
	}
	if v = m.Noise(v); v < 0 {
		return 0
	}
	return v
}

// translate applies the Eqn 5 physical-to-transport translation with the
// cell's retransmission granularity at the live BER. It solves Eqn 5 only
// when cp or the BER differs from the inputs memo last saw.
func (ct *cellTrack) translate(cp float64, memo *eqn5Memo) float64 {
	ber := 1e-6
	if ct.info.BER != nil {
		ber = ct.info.BER()
	}
	cpBits, berBits := math.Float64bits(cp), math.Float64bits(ber)
	if memo.cp == cpBits && memo.ber == berBits {
		return math.Float64frombits(memo.ct)
	}
	var c float64
	if ct.info.CBGBits > 0 {
		c = phy.TransportFromPhysicalCBG(cp, ber, ct.info.CBGBits)
	} else {
		c = phy.TransportFromPhysical(cp, ber)
	}
	*memo = eqn5Memo{cp: cpBits, ber: berBits, ct: math.Float64bits(c)}
	return c
}

// BitsPerSubframeToBps converts the paper's bits-per-subframe capacity
// unit to bits per second (1000 subframes per second).
func BitsPerSubframeToBps(v float64) float64 { return v * 1000 }
