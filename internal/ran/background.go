package ran

import (
	"time"

	"pbecc/internal/phy"
)

// BackgroundDemand is one virtual background user's demand for the
// current scheduling slot: the RNTI and physical rate its PDCCH grant
// would show, and the bits it wants served. Virtual users are the fluid
// background tier's interface to the scheduler (internal/fluid): they
// compete for RBGs in the same water-fill as packet-level users and
// appear in the subframe report exactly as a packet user would, but no
// packet, queue, HARQ process or delivery event ever exists for them.
type BackgroundDemand struct {
	RNTI uint16
	MCS  phy.MCS
	Bits int
}

// BackgroundSource supplies aggregate data-plane background demand to a
// cell, once per scheduling slot. Demand is called at the slot's virtual
// time and returns the currently backlogged virtual users; the cell then
// reports the granted capacity for entry i through Serve(i, bits). The
// returned slice is only read before the next Demand call, so
// implementations can reuse a buffer. A nil source (the default) leaves
// the cell byte-identical to the pre-fluid scheduler.
type BackgroundSource interface {
	Demand(now time.Duration) []BackgroundDemand
	Serve(i int, bits int)
}

// SetBackground attaches the cell's fluid background-traffic source;
// virtual users join the per-slot water-fill like packet users but
// generate no packet events.
func (c *Cell) SetBackground(b BackgroundSource) { c.background = b }
