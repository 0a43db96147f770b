package nr

import (
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// ENDC is a non-standalone (EN-DC, 3GPP option 3) dual-connectivity UE: an
// LTE anchor carries the connection and, under sustained demand, the
// network activates an NR secondary cell group whose capacity is
// aggregated with the anchor's. Downlink packets are split across the two
// RATs by estimated drain time, each leg reorders its own HARQ-delayed
// transport blocks, and released packets merge into per-flow receivers.
type ENDC struct {
	ran.FlowTable

	eng *sim.Engine

	anchor *ran.UE
	nrLeg  *ran.UE
	nrCell *Cell

	nrActive bool

	onActiveChange []func(active []*Cell)

	// Secondary-cell-group policy, mirroring the LTE carrier-aggregation
	// dynamics of the paper's Figure 2 and sampled on the anchor's
	// subframe clock: the NR leg activates after roughly 100 ms of
	// sustained demand on the LTE anchor and deactivates once the offered
	// load fits comfortably in the anchor alone.
	scg    *ran.Activation
	ticker *sim.Ticker

	// Counters.
	Activations   uint64
	Deactivations uint64
}

// NewENDC builds a dual-connectivity UE from an LTE anchor and one NR
// secondary cell. The anchor must already be attached to its LTE cells;
// the EN-DC UE takes over its flow routing (packets released by either leg
// merge through the EN-DC flow table). The NR leg, which shares the
// anchor's ID and RNTI, attaches immediately but stays inactive until
// demand activates it.
func NewENDC(eng *sim.Engine, anchor *ran.UE, nrCell *Cell, nrCh *phy.Channel) *ENDC {
	e := &ENDC{
		FlowTable: ran.NewFlowTable(eng),
		eng:       eng,
		anchor:    anchor,
		nrCell:    nrCell,
		scg:       ran.NewActivation(),
	}
	e.nrLeg = NewUE(eng, anchor.ID, anchor.RNTI)
	e.nrLeg.AddCell(nrCell, nrCh)
	merge := netsim.HandlerFunc(e.Route)
	anchor.SetDefaultHandler(merge)
	e.nrLeg.SetDefaultHandler(merge)
	return e
}

// Anchor returns the LTE anchor leg.
func (e *ENDC) Anchor() *ran.UE { return e.anchor }

// ActiveCells returns the anchor's active LTE carriers followed by the NR
// secondary cell while it is active.
func (e *ENDC) ActiveCells() []*Cell {
	active := append([]*Cell(nil), e.anchor.ActiveCells()...)
	if e.nrActive {
		active = append(active, e.nrCell)
	}
	return active
}

// OnActiveChange registers a callback fired whenever the device's active
// carrier set changes on either leg (PBE-CC's monitor attaches or detaches
// the cell on this event, restarting its ramp as in §4.1).
func (e *ENDC) OnActiveChange(fn func(active []*Cell)) {
	e.anchor.OnActiveChange(func([]*Cell) { fn(e.ActiveCells()) })
	e.onActiveChange = append(e.onActiveChange, fn)
}

// Start begins the anchor's carrier-aggregation bookkeeping and the EN-DC
// secondary-activation policy on the subframe clock.
func (e *ENDC) Start() {
	e.anchor.Start()
	if e.ticker == nil {
		e.ticker = e.eng.Every(time.Millisecond, e.tick)
	}
}

// Stop halts both legs' tickers.
func (e *ENDC) Stop() {
	e.anchor.Stop()
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
}

// Delivered returns the packets released in order across both legs.
func (e *ENDC) Delivered() uint64 { return e.anchor.Delivered + e.nrLeg.Delivered }

// LostPackets returns the packets lost after HARQ exhaustion on either leg.
func (e *ENDC) LostPackets() uint64 { return e.anchor.LostPackets + e.nrLeg.LostPackets }

// HandlePacket dispatches an arriving downlink packet: to the anchor while
// the NR leg is inactive, otherwise to the leg with the smaller estimated
// drain time (the network's bearer split across RATs). Drain times compare
// in wall-clock seconds, which makes the split numerology-agnostic.
func (e *ENDC) HandlePacket(now time.Duration, p *netsim.Packet) {
	if !e.nrActive {
		e.anchor.HandlePacket(now, p)
		return
	}
	anchorRate := e.anchor.RateBps()
	nrRate := e.nrLeg.RateBps()
	if nrRate <= 0 {
		e.anchor.HandlePacket(now, p)
		return
	}
	if anchorRate <= 0 {
		e.nrLeg.HandlePacket(now, p)
		return
	}
	anchorDrain := float64(e.anchor.QueueBits()) / anchorRate
	nrDrain := float64(e.nrLeg.QueueBits()) / nrRate
	if nrDrain < anchorDrain {
		e.nrLeg.HandlePacket(now, p)
		return
	}
	e.anchor.HandlePacket(now, p)
}

// tick runs once per subframe, sampling anchor demand and total served
// load for the secondary-activation policy.
func (e *ENDC) tick() {
	userPRBs, totalPRBs, served := e.anchor.SlotLoad()
	if e.nrActive {
		// The NR cell schedules 2^µ slots per subframe; SlotLoad covers
		// only the latest slot, so scale it to a per-subframe estimate for
		// the deactivation decision.
		_, _, nrServed := e.nrLeg.SlotLoad()
		served += nrServed * e.nrCell.SlotsPerSubframe()
	}
	e.scg.Sample(e.anchor.QueueBits(), userPRBs, totalPRBs, served)
	now := e.eng.Now()
	if !e.nrActive && e.scg.ActivationDue(now) {
		e.Activations++
		e.setNRActive(now, true)
		return
	}
	// Deactivation: the window's load would fit in the anchor alone.
	if e.nrActive && e.scg.DeactivationDue(now) &&
		e.scg.ServedFits(e.anchor.RateBps()/1000*ran.DeactWindow) {
		e.Deactivations++
		e.setNRActive(now, false)
	}
}

func (e *ENDC) setNRActive(now time.Duration, active bool) {
	e.nrActive = active
	e.scg.Changed(now)
	act := e.ActiveCells()
	for _, fn := range e.onActiveChange {
		fn(act)
	}
}
