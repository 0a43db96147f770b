package ran

import (
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// FlowTable routes packets released by a device's reorder buffers to
// per-flow receivers. It is the last hop of the downlink inside the RAN:
// a packet no handler claims is dropped and released here.
type FlowTable struct {
	pool        *netsim.PacketPool
	flows       map[int]netsim.Handler
	defaultFlow netsim.Handler
}

// NewFlowTable creates an empty flow table on the engine's packet pool.
func NewFlowTable(eng *sim.Engine) FlowTable {
	return FlowTable{pool: netsim.PoolOf(eng), flows: make(map[int]netsim.Handler)}
}

// RegisterFlow routes released packets with the given flow ID to h.
func (t *FlowTable) RegisterFlow(flowID int, h netsim.Handler) { t.flows[flowID] = h }

// SetDefaultHandler routes packets of unregistered flows.
func (t *FlowTable) SetDefaultHandler(h netsim.Handler) { t.defaultFlow = h }

// Route hands a released packet to its flow's handler.
func (t *FlowTable) Route(now time.Duration, p *netsim.Packet) {
	h := t.flows[p.FlowID]
	if h == nil {
		h = t.defaultFlow
	}
	if h != nil {
		h.HandlePacket(now, p)
		return
	}
	t.pool.Release(p) // no handler: dropped at the device
}

// UE is one mobile device: it dispatches arriving downlink packets across
// its active component carriers, reorders HARQ-delayed transport blocks
// per cell, releases packets in order to per-flow receivers, and - when
// built with carrier aggregation - runs the network side's carrier
// (de)activation policy.
type UE struct {
	FlowTable

	eng  *sim.Engine
	ID   int
	RNTI uint16

	cells   []*Cell
	active  int
	reorder map[int]*reorderState

	onActiveChange []func(active []*Cell)

	// Carrier-aggregation state; act is nil on a device whose carriers are
	// semi-statically configured and therefore all active.
	act       *Activation
	caEnabled bool
	ticker    *sim.Ticker

	// Counters.
	LostPackets   uint64
	Delivered     uint64
	Activations   uint64
	Deactivations uint64
}

type reorderState struct {
	next    uint64
	pending map[uint64]tbArrival
}

type tbArrival struct {
	packets []*netsim.Packet
	ok      bool
}

// NewUE creates a UE; add component carriers with AddCell (primary first),
// then Start. With dynamicCA only the primary carrier starts active and
// the Activation policy brings secondaries up and down with demand (LTE
// carrier aggregation, Figure 2 of the paper); without it every
// configured carrier is active from the start (NR, whose dynamic
// secondary activation is the EN-DC device's job).
func NewUE(eng *sim.Engine, id int, rnti uint16, dynamicCA bool) *UE {
	u := &UE{
		FlowTable: NewFlowTable(eng),
		eng:       eng,
		ID:        id,
		RNTI:      rnti,
		reorder:   make(map[int]*reorderState),
	}
	if dynamicCA {
		u.act = NewActivation()
		u.caEnabled = true
	}
	return u
}

// AddCell configures a component carrier; the first call sets the primary
// cell. The UE attaches to the cell immediately, but packets are only
// dispatched to active carriers.
func (u *UE) AddCell(c *Cell, ch *phy.Channel) {
	if c.eng != u.eng {
		// Cells and their users share one event engine; in sharded runs a
		// UE spanning shards would race its own carriers. Only netsim
		// links may cross a shard boundary.
		panic("ran: UE and cell live on different engines (shard boundary)")
	}
	c.AttachUser(u, u.RNTI, ch)
	u.cells = append(u.cells, c)
	u.reorder[c.ID] = &reorderState{pending: make(map[uint64]tbArrival)}
	if u.act == nil || u.active == 0 {
		u.active++
	}
}

// SetCarrierAggregation enables or disables secondary-cell activation
// (disabled models a device like the paper's Redmi 8 with one carrier).
func (u *UE) SetCarrierAggregation(on bool) { u.caEnabled = on }

// Start begins the per-subframe carrier-aggregation bookkeeping; a device
// without dynamic carrier aggregation needs none.
func (u *UE) Start() {
	if u.act == nil || u.ticker != nil {
		return
	}
	u.ticker = u.eng.Every(time.Millisecond, u.tick)
}

// Stop halts the UE's ticker.
func (u *UE) Stop() {
	if u.ticker != nil {
		u.ticker.Stop()
		u.ticker = nil
	}
}

// ActiveCells returns the currently active component carriers, primary
// first. The returned slice must not be modified.
func (u *UE) ActiveCells() []*Cell { return u.cells[:u.active] }

// OnActiveChange registers a callback fired whenever the active carrier
// set changes (PBE-CC's monitor restarts its fair-share ramp on this
// event, §4.1).
func (u *UE) OnActiveChange(fn func(active []*Cell)) {
	u.onActiveChange = append(u.onActiveChange, fn)
}

// HandlePacket dispatches an arriving downlink packet to the active cell
// with the smallest estimated drain time, implementing the network's
// bearer split across aggregated carriers. Drain times compare in
// wall-clock seconds, so carriers of different numerologies mix.
func (u *UE) HandlePacket(now time.Duration, p *netsim.Packet) {
	best := -1
	bestDrain := 0.0
	for i, c := range u.cells[:u.active] {
		rate := c.UserRateBps(u.RNTI)
		if rate <= 0 {
			continue
		}
		drain := float64(c.UserQueueBits(u.RNTI)) / rate
		if best < 0 || drain < bestDrain {
			best, bestDrain = i, drain
		}
	}
	if best < 0 {
		best = 0
	}
	u.cells[best].Enqueue(u.RNTI, p)
}

// deliverTB receives one transport block's completed packets from a cell
// (ok=false marks a block lost after exhausting HARQ retransmissions) and
// releases packets in per-cell order, modeling the reordering buffer of
// Figure 3.
func (u *UE) deliverTB(cellID int, seq uint64, packets []*netsim.Packet, ok bool) {
	st := u.reorder[cellID]
	if st == nil {
		return
	}
	st.pending[seq] = tbArrival{packets: packets, ok: ok}
	for {
		a, exists := st.pending[st.next]
		if !exists {
			return
		}
		delete(st.pending, st.next)
		st.next++
		for _, p := range a.packets {
			if !a.ok {
				// Lost after exhausting HARQ: the packets never reach a
				// flow handler, so the reorder buffer is their last owner.
				u.LostPackets++
				u.pool.Release(p)
				continue
			}
			u.Delivered++
			u.Route(u.eng.Now(), p)
		}
	}
}

// tick runs once per subframe after the cells have scheduled, sampling
// demand and served load for the carrier-aggregation policy.
func (u *UE) tick() {
	queued, userPRBs, totalPRBs, served := 0, 0, 0, 0
	for _, c := range u.cells[:u.active] {
		queued += c.UserQueueBits(u.RNTI)
		userPRBs += c.LastUserPRBs(u.RNTI)
		totalPRBs += c.NPRB
		served += c.LastUserServedBits(u.RNTI)
	}
	u.act.Sample(queued, userPRBs, totalPRBs, served)
	if !u.caEnabled {
		return
	}
	now := u.eng.Now()
	if u.active < len(u.cells) && u.act.ActivationDue(now) {
		u.active++
		u.Activations++
		u.activeChanged(now)
		return
	}
	if u.active > 1 && u.act.DeactivationDue(now) {
		// Would the window's load fit comfortably in the active cells
		// minus the last one?
		var capMinusLast float64
		for _, c := range u.cells[:u.active-1] {
			capMinusLast += c.UserRate(u.RNTI) * float64(c.NPRB) * DeactWindow
		}
		if u.act.ServedFits(capMinusLast) {
			u.active--
			u.Deactivations++
			u.activeChanged(now)
		}
	}
}

func (u *UE) activeChanged(now time.Duration) {
	u.act.Changed(now)
	act := u.ActiveCells()
	for _, fn := range u.onActiveChange {
		fn(act)
	}
}
