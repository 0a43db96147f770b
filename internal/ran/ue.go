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

	cells  []*Cell
	users  []*cellUser // users[i] is this device's attachment to cells[i]
	active int

	onActiveChange []func(active []*Cell)

	// Carrier-aggregation state; act is nil on a device whose carriers are
	// semi-statically configured and therefore all active.
	act       *Activation
	caEnabled bool
	started   bool
	ticker    *sim.Ticker

	// Counters.
	LostPackets   uint64
	Delivered     uint64
	Activations   uint64
	Deactivations uint64
}

// reorderState is one carrier's reordering buffer: the block with
// sequence seq waits at ring.At(seq-next) until every earlier block has
// arrived, and the ring spans next up to the furthest arrival. HARQ
// bounds how far ahead of next a block normally arrives
// (MaxRetransmissions x HARQDelaySlots slots, one new block per slot).
type reorderState struct {
	next uint64 // sequence of the next block to release
	ring sim.Ring[tbArrival]
}

type tbArrival struct {
	packets []*netsim.Packet
	ok      bool
	held    bool // the slot holds a block awaiting release
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
	u.users = append(u.users, c.attach(u, u.RNTI, ch))
	u.cells = append(u.cells, c)
	if u.act == nil || u.active == 0 {
		u.active++
	}
	u.armTicker()
}

// SetCarrierAggregation enables or disables secondary-cell activation
// (disabled models a device like the paper's Redmi 8 with one carrier).
func (u *UE) SetCarrierAggregation(on bool) { u.caEnabled = on }

// Start begins the per-subframe carrier-aggregation bookkeeping. A device
// without dynamic carrier aggregation needs none, and neither does one
// with a single carrier, whose active set cannot change: its ticker is
// armed when a second carrier is added.
func (u *UE) Start() {
	u.started = true
	u.armTicker()
}

// armTicker starts the activation ticker once the device is started with
// two or more carriers under dynamic carrier aggregation.
func (u *UE) armTicker() {
	if !u.started || u.act == nil || u.ticker != nil || len(u.cells) < 2 {
		return
	}
	u.ticker = u.eng.Every(time.Millisecond, u.tick)
}

// Stop halts the UE's ticker.
func (u *UE) Stop() {
	u.started = false
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
	for i, cu := range u.users[:u.active] {
		rate := cu.rateBps()
		if rate <= 0 {
			continue
		}
		drain := float64(cu.queuedBits) / rate
		if best < 0 || drain < bestDrain {
			best, bestDrain = i, drain
		}
	}
	if best < 0 {
		best = 0
	}
	u.cells[best].enqueue(u.users[best], p)
}

// RateBps sums, over the active carriers, the rate the device would see
// alone on each, in bits per second.
func (u *UE) RateBps() float64 {
	var rate float64
	for _, cu := range u.users[:u.active] {
		rate += cu.rateBps()
	}
	return rate
}

// QueueBits returns the bits queued for the device across its active
// carriers.
func (u *UE) QueueBits() int {
	bits := 0
	for _, cu := range u.users[:u.active] {
		bits += cu.queuedBits
	}
	return bits
}

// SlotLoad returns, summed over the active carriers, the PRBs granted to
// the device in each carrier's last slot, the carriers' total PRBs, and
// the payload bits served to the device in that slot.
func (u *UE) SlotLoad() (userPRBs, totalPRBs, servedBits int) {
	for _, cu := range u.users[:u.active] {
		userPRBs += cu.lastPRBs
		totalPRBs += cu.cell.NPRB
		servedBits += cu.lastServedBits
	}
	return
}

// deliverTB receives one transport block's completed packets from a cell
// (ok=false marks a block lost after exhausting HARQ retransmissions) and
// releases packets in per-cell order, modeling the reordering buffer of
// Figure 3. The packet list goes back to the cell once the block's last
// packet is routed or released.
func (u *UE) deliverTB(cu *cellUser, seq uint64, packets []*netsim.Packet, ok bool) {
	st := &cu.reorder
	if seq < st.next {
		panic("ran: transport block delivered twice")
	}
	for seq-st.next >= uint64(st.ring.Len()) {
		st.ring.PushBack(tbArrival{})
	}
	*st.ring.At(int(seq - st.next)) = tbArrival{packets: packets, ok: ok, held: true}
	for st.ring.Len() > 0 && st.ring.Front().held {
		a := st.ring.PopFront()
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
		cu.cell.putList(a.packets)
	}
}

// tick runs once per subframe after the cells have scheduled, sampling
// demand and served load for the carrier-aggregation policy.
func (u *UE) tick() {
	userPRBs, totalPRBs, served := u.SlotLoad()
	u.act.Sample(u.QueueBits(), userPRBs, totalPRBs, served)
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
		for _, cu := range u.users[:u.active-1] {
			capMinusLast += cu.rate() * float64(cu.cell.NPRB) * DeactWindow
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
