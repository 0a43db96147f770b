package ran

import (
	"math/rand"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// HARQ timing shared by both RATs (§3 of the paper): an erroneous block is
// retransmitted eight scheduling slots after the failed attempt, at most
// three times. In wall time the delay shrinks with the numerology (8 slots
// = 8 ms on LTE, 1 ms at NR µ=3), matching NR's lower retransmission
// latency.
const (
	HARQDelaySlots     = 8
	MaxRetransmissions = 3
)

// CellConfig fixes one carrier's geometry and the scheduling decisions on
// which LTE and NR differ. It is filled by lte.NewCell and nr.NewCell from
// their standards tables, not by scenarios.
type CellConfig struct {
	ID    int
	NPRB  int
	Table phy.CQITable

	// Control produces the control-plane grants (nil = quiet cell). It is
	// ticked on subframe boundaries only, so the per-ms signaling load
	// matches the LTE calibration of package trace at any numerology.
	Control ControlSource

	// SlotsPerSubframe is 2^µ: the slot lasts 1 ms / SlotsPerSubframe.
	SlotsPerSubframe int

	// RBGSize is the resource-block-group size P that data and HARQ grants
	// are rounded to (resource-allocation type 0).
	RBGSize int

	// ControlGrantPRBs is the footprint of one control-grant unit: RBGSize
	// on LTE (RBG-granular), four contiguous PRBs on NR (type 1).
	ControlGrantPRBs int

	// RotateUsers rotates the water-fill service order with the slot index,
	// so the capped grant at the band edge does not always fall on the same
	// user (NR); false serves in attach order (LTE).
	RotateUsers bool

	// CBGBits, when positive, selects code-block-group HARQ: one error draw
	// per outstanding group of this many bits, and a retransmission grant
	// shrunk to the failed groups (NR). Zero retransmits the whole
	// transport block in an unchanged grant after one draw (LTE).
	CBGBits int

	// PerUserQueueBytes caps each user's downlink queue, modeling the
	// finite RLC buffer of deployed base stations; zero means unbounded.
	PerUserQueueBytes int
}

// Cell is one component carrier: a slot-clocked base station scheduler
// with per-user queues, HARQ, and per-slot control-channel emission.
type Cell struct {
	eng *sim.Engine

	ID    int
	NPRB  int
	Table phy.CQITable

	control    ControlSource
	background BackgroundSource
	users      []*cellUser
	byRNTI     map[uint16]*cellUser
	monitors   []Monitor

	slot    int
	spf     int // slots per subframe
	slotDur time.Duration
	retx    retxRing
	rng     *rand.Rand
	pool    *netsim.PacketPool

	rbgSize          int
	controlGrantPRBs int
	rotateUsers      bool
	cbgBits          int

	// Per-slot scratch, reused across ticks (DESIGN.md section 12): one
	// SubframeReport per cell whose Allocs slice is resliced each slot
	// (monitor consumers copy what they keep), the water-fill inputs, and
	// a transport-block free list. deliveries is the coalesced TB-delivery
	// queue: instead of one event per transport block, the cell schedules
	// a single pre-bound delivery event per slot that drains the queue in
	// transmit order at the next slot boundary. listFree recycles the
	// blocks' packet lists: a list travels block -> delivery entry ->
	// reorder slot and comes back here once its last packet is routed or
	// released, so it has exactly one owner at any time. The block and
	// list free lists, the HARQ ring and the delivery queue come from the
	// engine's cell stock (storage.go), so a cell on a recycled engine
	// starts with what a cell of the previous run grew.
	rep          *SubframeReport
	blUsers      []*cellUser
	wants        []int
	wf           WaterFiller
	tbFree       []*transportBlock
	listFree     [][]*netsim.Packet
	deliveries   []tbDelivery
	deliverArmed bool
	deliverFn    func()

	// PerUserQueueBytes caps each user's downlink queue; packets beyond
	// it are dropped at enqueue (drop-tail), so loss-based senders fill it
	// and see drops, as on real cells. Zero means unbounded.
	PerUserQueueBytes int

	// ErrorModel, when non-nil, replaces random block error sampling: it
	// is called per transmission attempt and returns whether the whole
	// block was received in error. Used by tests and the Figure 3
	// experiment to inject deterministic errors.
	ErrorModel func(rnti uint16, tbSeq uint64, attempt int, bits int, ber float64) bool

	// Counters for evaluation (Figure 6a and others).
	TotalTBs     uint64
	ErrorTBs     uint64
	LostTBs      uint64
	DataPRBs     uint64
	RetxPRBs     uint64
	ControlPRBs  uint64
	FluidPRBs    uint64 // PRBs granted to fluid background users
	QueueDropped uint64
}

// cellUser is one attachment of a device to a cell. The cell finds it by
// RNTI; the device keeps the pointer AddCell got, so the per-packet and
// per-slot paths never hash.
type cellUser struct {
	cell *Cell
	rnti uint16
	ue   *UE
	ch   *phy.Channel

	// queue is the user's downlink queue.
	queue      sim.Ring[*netsim.Packet]
	headSent   int // bytes of the head packet already carried in earlier TBs
	queuedBits int
	nextTB     uint64

	// Per-slot scratch, read back by the UE-side activation policy after
	// the cell ticks.
	lastPRBs       int
	lastServedBits int

	// reorder is the device's reordering buffer for this carrier.
	reorder reorderState
}

// rate returns the user's physical rate in bits per PRB per slot.
func (u *cellUser) rate() float64 {
	return u.ch.MCS().BitsPerPRB()
}

// rateBps returns the rate the user would see alone on the whole carrier.
func (u *cellUser) rateBps() float64 {
	return u.rate() * float64(u.cell.NPRB) * (1000 * float64(u.cell.spf))
}

type transportBlock struct {
	user      *cellUser
	seq       uint64
	rbgs      int
	bits      int // allocated size (drives the error probability)
	completed []*netsim.Packet
	attempts  int
	mcs       phy.MCS

	// HARQ units (code-block groups; one for whole-TB HARQ): the total in
	// the original block and those still outstanding, i.e. failed in every
	// attempt so far.
	unitsTotal       int
	unitsOutstanding int
}

// tbDelivery is one entry of the cell's coalesced delivery queue: the
// transport block's outcome, decoupled from the (recycled) block struct.
// The packets slice transfers to the UE's reorder buffer.
type tbDelivery struct {
	user *cellUser
	seq  uint64
	pkts []*netsim.Packet
	ok   bool
}

// queueKey is the engine-local stock of per-user queue storage: an
// attachment made on a recycled engine starts with the backing array an
// attachment of the previous run grew.
var queueKey = sim.NewLocalKey()

// tbListInitial is the capacity of a new transport-block packet list:
// enough for most blocks, so a list rarely regrows on its way to the
// largest block it will carry.
const tbListInitial = 8

// reorderKey is the engine-local stock of reorder rings.
var reorderKey = sim.NewLocalKey()

// NewCell creates a cell and starts its slot ticker on the engine.
func NewCell(eng *sim.Engine, cfg CellConfig) *Cell {
	c := &Cell{
		eng:               eng,
		ID:                cfg.ID,
		NPRB:              cfg.NPRB,
		Table:             cfg.Table,
		control:           cfg.Control,
		byRNTI:            make(map[uint16]*cellUser),
		rng:               eng.Rand(),
		spf:               cfg.SlotsPerSubframe,
		slotDur:           time.Millisecond / time.Duration(cfg.SlotsPerSubframe),
		rbgSize:           cfg.RBGSize,
		controlGrantPRBs:  cfg.ControlGrantPRBs,
		rotateUsers:       cfg.RotateUsers,
		cbgBits:           cfg.CBGBits,
		PerUserQueueBytes: cfg.PerUserQueueBytes,
		pool:              netsim.PoolOf(eng),
		rep:               &SubframeReport{CellID: cfg.ID, NPRB: cfg.NPRB},
	}
	st := cellStockOf(eng).take(c)
	c.tbFree, c.listFree, c.retx, c.deliveries = st.tbFree, st.listFree, st.retx, st.deliveries
	c.deliverFn = c.deliverPending
	eng.Every(c.slotDur, c.tick)
	return c
}

// Slot returns the index of the last processed slot.
func (c *Cell) Slot() int { return c.slot }

// Subframe returns the 1-based index of the subframe the last processed
// slot belongs to (the slot index itself at one slot per subframe).
func (c *Cell) Subframe() int { return (c.slot + c.spf - 1) / c.spf }

// SlotDuration returns the slot length of the cell's numerology.
func (c *Cell) SlotDuration() time.Duration { return c.slotDur }

// SlotsPerSubframe returns the slots per 1 ms subframe (1 on LTE, 2^µ on
// NR).
func (c *Cell) SlotsPerSubframe() int { return c.spf }

// CBGBits returns the code-block-group size of the cell's HARQ, zero for
// whole-transport-block HARQ.
func (c *Cell) CBGBits() int { return c.cbgBits }

// AttachMonitor registers a control-channel monitor; monitors run in
// registration order after each slot is scheduled.
func (c *Cell) AttachMonitor(m Monitor) { c.monitors = append(c.monitors, m) }

// attach connects a UE to this cell under the given RNTI with the given
// radio channel and returns the attachment, which UE.AddCell keeps.
func (c *Cell) attach(ue *UE, rnti uint16, ch *phy.Channel) *cellUser {
	if _, dup := c.byRNTI[rnti]; dup {
		panic("ran: duplicate RNTI on cell")
	}
	u := &cellUser{cell: c, rnti: rnti, ue: ue, ch: ch}
	u.queue.FromStock(c.eng, queueKey)
	u.reorder.ring.FromStock(c.eng, reorderKey)
	c.users = append(c.users, u)
	c.byRNTI[rnti] = u
	return u
}

// Enqueue adds a downlink packet to the user's queue at this cell. It
// reports false if the RNTI is not attached or the queue is full. On
// either false path the packet is dropped - callers never retry a refused
// packet - so the cell releases it as its last owner.
func (c *Cell) Enqueue(rnti uint16, p *netsim.Packet) bool {
	return c.enqueue(c.byRNTI[rnti], p)
}

// enqueue is Enqueue on an attachment (nil = not attached).
func (c *Cell) enqueue(u *cellUser, p *netsim.Packet) bool {
	if u == nil {
		c.pool.Release(p)
		return false
	}
	if c.PerUserQueueBytes > 0 && u.queuedBits/8+p.Size > c.PerUserQueueBytes {
		c.QueueDropped++
		c.pool.Release(p)
		return false
	}
	u.queue.PushBack(p)
	u.queuedBits += p.Size * 8
	return true
}

// UserQueueBits returns the bits waiting in a user's queue.
func (c *Cell) UserQueueBits(rnti uint16) int {
	if u, ok := c.byRNTI[rnti]; ok {
		return u.queuedBits
	}
	return 0
}

// UserRate returns the user's current physical rate in bits per PRB per
// slot.
func (c *Cell) UserRate(rnti uint16) float64 {
	if u, ok := c.byRNTI[rnti]; ok {
		return u.rate()
	}
	return 0
}

// tick runs one slot: advance channels, serve control users, serve HARQ
// retransmissions, water-fill the remaining RBGs over backlogged users,
// sample block errors, and publish the control channel.
//
// The cursor tracks PRBs rather than RBGs: HARQ and data grants are
// RBG-granular over the remaining PRBs, capped at the band edge (the last
// grant absorbs the partial RBG there), while control grants may be
// PRB-granular. rbgLeft stays equal to ceil(prbLeft/rbgSize), so every
// granted RBG covers at least one PRB.
func (c *Cell) tick() {
	now := c.eng.Now()
	c.slot++
	for _, u := range c.users {
		u.ch.Step(now, c.slotDur)
		u.lastPRBs = 0
		u.lastServedBits = 0
	}

	rep := c.rep
	rep.Subframe = c.slot
	rep.Allocs = rep.Allocs[:0]
	cursor := 0
	prbLeft := c.NPRB

	// 1. Control-plane users first, on subframe boundaries.
	if c.control != nil && (c.slot-1)%c.spf == 0 {
		for _, g := range c.control.Tick(c.Subframe(), c.rng) {
			prbs := g.RBGs * c.controlGrantPRBs
			if prbs > prbLeft {
				prbs = prbLeft
			}
			if prbs == 0 {
				break
			}
			mcs := phy.MCS{CQI: 5, Table: c.Table, Streams: 1}
			rep.Allocs = append(rep.Allocs, Alloc{
				RNTI: g.RNTI, FirstRBG: cursor / c.rbgSize,
				NumRBGs: (prbs + c.rbgSize - 1) / c.rbgSize, PRBs: prbs,
				MCS: mcs, TBBits: int(float64(prbs) * mcs.BitsPerPRB()),
				NDI: true, Control: true,
			})
			c.ControlPRBs += uint64(prbs)
			cursor += prbs
			prbLeft -= prbs
		}
	}
	rbgLeft := (prbLeft + c.rbgSize - 1) / c.rbgSize

	// 2. HARQ retransmissions scheduled for this slot; what no longer
	// fits is postponed by one slot.
	c.retx.serve(c.slot, func(tb *transportBlock) bool {
		if tb.rbgs > rbgLeft {
			return false
		}
		prbs := tb.rbgs * c.rbgSize
		if prbs > prbLeft {
			prbs = prbLeft
		}
		rep.Allocs = append(rep.Allocs, Alloc{
			RNTI: tb.user.rnti, FirstRBG: cursor / c.rbgSize,
			NumRBGs: tb.rbgs, PRBs: prbs,
			MCS: tb.mcs, TBBits: tb.bits, NDI: false,
		})
		c.RetxPRBs += uint64(prbs)
		tb.user.lastPRBs += prbs
		cursor += prbs
		prbLeft -= prbs
		rbgLeft -= tb.rbgs
		c.transmit(tb)
		return true
	})

	// 3. Water-fill the remaining RBGs over backlogged data users. Fluid
	// background users (virtual aggregate sessions, see SetBackground)
	// join the same water-fill after the packet users, so both tiers
	// share capacity under one fairness policy.
	blUsers := c.blUsers[:0]
	wants := c.wants[:0]
	first := 0
	if c.rotateUsers && len(c.users) > 0 {
		first = c.slot % len(c.users)
	}
	for k := range c.users {
		i := first + k
		if i >= len(c.users) {
			i -= len(c.users)
		}
		u := c.users[i]
		if u.queuedBits <= 0 || !u.ch.MCS().Valid() {
			continue
		}
		perRBG := u.ch.MCS().BitsPerPRB() * float64(c.rbgSize)
		w := int(float64(u.queuedBits)/perRBG) + 1
		blUsers = append(blUsers, u)
		wants = append(wants, w)
	}
	var bg []BackgroundDemand
	if c.background != nil {
		bg = c.background.Demand(now)
		for i := range bg {
			perRBG := bg[i].MCS.BitsPerPRB() * float64(c.rbgSize)
			wants = append(wants, int(float64(bg[i].Bits)/perRBG)+1)
		}
	}
	c.blUsers, c.wants = blUsers, wants
	grants := c.wf.Fill(wants, rbgLeft, c.slot)
	for i, u := range blUsers {
		n := grants[i]
		if n == 0 {
			continue
		}
		prbs := n * c.rbgSize
		if prbs > prbLeft {
			prbs = prbLeft
		}
		mcs := u.ch.MCS()
		bits := int(float64(prbs) * mcs.BitsPerPRB())
		tb := c.buildTB(u, n, bits, mcs)
		rep.Allocs = append(rep.Allocs, Alloc{
			RNTI: u.rnti, FirstRBG: cursor / c.rbgSize,
			NumRBGs: n, PRBs: prbs,
			MCS: mcs, TBBits: bits, NDI: true,
		})
		c.DataPRBs += uint64(prbs)
		u.lastPRBs += prbs
		cursor += prbs
		prbLeft -= prbs
		c.transmit(tb)
	}
	for i := range bg {
		n := grants[len(blUsers)+i]
		if n == 0 {
			continue
		}
		prbs := n * c.rbgSize
		if prbs > prbLeft {
			prbs = prbLeft
		}
		bits := int(float64(prbs) * bg[i].MCS.BitsPerPRB())
		rep.Allocs = append(rep.Allocs, Alloc{
			RNTI: bg[i].RNTI, FirstRBG: cursor / c.rbgSize,
			NumRBGs: n, PRBs: prbs,
			MCS: bg[i].MCS, TBBits: bits, NDI: true,
		})
		c.FluidPRBs += uint64(prbs)
		cursor += prbs
		prbLeft -= prbs
		c.background.Serve(i, bits)
	}

	for _, m := range c.monitors {
		m(rep)
	}
}

// buildTB drains up to the allocated bits from the user's queue into a new
// transport block.
func (c *Cell) buildTB(u *cellUser, rbgs, bits int, mcs phy.MCS) *transportBlock {
	var tb *transportBlock
	if n := len(c.tbFree); n > 0 {
		tb = c.tbFree[n-1]
		c.tbFree[n-1] = nil
		c.tbFree = c.tbFree[:n-1]
	} else {
		tb = &transportBlock{}
	}
	tb.user, tb.seq, tb.rbgs, tb.bits, tb.mcs = u, u.nextTB, rbgs, bits, mcs
	u.nextTB++
	if n := len(c.listFree); n > 0 {
		tb.completed = c.listFree[n-1]
		c.listFree[n-1] = nil
		c.listFree = c.listFree[:n-1]
	} else {
		tb.completed = make([]*netsim.Packet, 0, tbListInitial)
	}
	capBytes := bits / 8
	served := 0
	for capBytes > 0 && u.queue.Len() > 0 {
		head := *u.queue.Front()
		rem := head.Size - u.headSent
		take := rem
		if take > capBytes {
			take = capBytes
		}
		u.headSent += take
		capBytes -= take
		served += take
		if u.headSent == head.Size {
			tb.completed = append(tb.completed, u.queue.PopFront())
			u.headSent = 0
		}
	}
	u.queuedBits -= served * 8
	u.lastServedBits += served * 8
	return tb
}

// transmit samples the error process of one attempt - one draw per
// outstanding HARQ unit - and schedules either in-order delivery at the
// next slot boundary or a retransmission HARQDelaySlots later. After the
// maximum number of retransmissions the block is declared lost and the
// receiver's reordering buffer is released (its packets never arrive).
func (c *Cell) transmit(tb *transportBlock) {
	c.TotalTBs++
	u := tb.user
	unitBits := tb.bits // whole-TB HARQ: the block is its own single unit
	if c.cbgBits > 0 {
		unitBits = c.cbgBits
	}
	if tb.attempts == 0 {
		tb.unitsTotal = 1
		if tb.bits > unitBits {
			tb.unitsTotal = (tb.bits + unitBits - 1) / unitBits
		}
		tb.unitsOutstanding = tb.unitsTotal
	}
	failed := 0
	if c.ErrorModel != nil {
		// The deterministic override keeps whole-block semantics.
		if c.ErrorModel(u.rnti, tb.seq, tb.attempts, tb.bits, u.ch.BER()) {
			failed = tb.unitsOutstanding
		}
	} else {
		p := phy.TBErrorRate(u.ch.BER(), unitBits)
		for i := 0; i < tb.unitsOutstanding; i++ {
			if c.rng.Float64() < p {
				failed++
			}
		}
	}
	if failed == 0 {
		c.queueDelivery(tb, true)
		return
	}
	c.ErrorTBs++
	tb.attempts++
	if tb.attempts > MaxRetransmissions {
		c.LostTBs++
		c.queueDelivery(tb, false)
		return
	}
	if c.cbgBits > 0 {
		// Only the failed groups are retransmitted: shrink the grant to
		// their share of the original allocation. (NR transport blocks are
		// far larger than LTE's, so whole-TB retransmission would waste a
		// large fraction of the carrier.)
		tb.unitsOutstanding = failed
		tb.rbgs = (tb.rbgs*failed + tb.unitsTotal - 1) / tb.unitsTotal
		if tb.rbgs < 1 {
			tb.rbgs = 1
		}
		tb.bits = failed * c.cbgBits
	}
	c.retx.add(c.slot+HARQDelaySlots, tb)
}

// retxRing holds the blocks awaiting a HARQ retransmission: one list per
// slot, at index slot % len. A block failed in slot s is due in slot
// s+HARQDelaySlots, and serving slot s can postpone blocks to s+1, so
// the pending slots always lie within [s, s+HARQDelaySlots] and never
// share an index. The lists are emptied in place, so once each has grown
// to the most blocks one slot ever carries, HARQ allocates nothing.
type retxRing [HARQDelaySlots + 2][]*transportBlock

// add queues blocks at the end of slot's list.
func (r *retxRing) add(slot int, tbs ...*transportBlock) {
	l := &r[slot%len(r)]
	*l = append(*l, tbs...)
}

// serve offers slot's blocks to fit in queueing order until fit refuses
// one (the slot is full): that block and every later one move, in order,
// to the end of slot+1's list. slot's list is empty afterwards. fit may
// add blocks to any other slot.
func (r *retxRing) serve(slot int, fit func(*transportBlock) bool) {
	l := &r[slot%len(r)]
	for i, tb := range *l {
		if !fit(tb) {
			r.add(slot+1, (*l)[i:]...)
			break
		}
	}
	clear(*l)
	*l = (*l)[:0]
}

// queueDelivery appends the block's outcome to the coalesced delivery
// queue and recycles the block struct (its packets now belong to the
// queue entry, then to the UE's reorder buffer). The queue is drained by
// one pre-bound event at the next slot boundary - scheduled on the first
// delivery of the tick, so a slot costs one delivery event no matter how
// many blocks it carries. Order within the event equals transmit order,
// exactly the order per-block events would fire in; the queue is only
// appended to during tick, never while draining.
func (c *Cell) queueDelivery(tb *transportBlock, ok bool) {
	c.deliveries = append(c.deliveries, tbDelivery{user: tb.user, seq: tb.seq, pkts: tb.completed, ok: ok})
	if !c.deliverArmed {
		c.deliverArmed = true
		c.eng.Schedule(c.slotDur, c.deliverFn)
	}
	c.recycle(tb)
}

// recycle returns a block struct whose packets have been handed on (or
// released) to the free list.
func (c *Cell) recycle(tb *transportBlock) {
	*tb = transportBlock{}
	c.tbFree = append(c.tbFree, tb)
}

// putList takes back a block's packet list once every packet in it has
// been routed or released; the caller must not touch it afterwards.
func (c *Cell) putList(l []*netsim.Packet) {
	if cap(l) == 0 {
		return
	}
	clear(l)
	c.listFree = append(c.listFree, l[:0])
}

// deliverPending hands every queued transport-block outcome to its UE.
func (c *Cell) deliverPending() {
	c.deliverArmed = false
	ds := c.deliveries
	for i := range ds {
		d := &ds[i]
		d.user.ue.deliverTB(d.user, d.seq, d.pkts, d.ok)
		*d = tbDelivery{}
	}
	c.deliveries = ds[:0]
}
