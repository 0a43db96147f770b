// Package ran is the slot-clocked radio-access-network core shared by the
// LTE and 5G NR simulators: one cell scheduler (per-user queues, control
// grants, HARQ retransmissions, water-filling over backlogged users and
// fluid background sessions, coalesced per-slot delivery, per-slot
// control-channel emission - what the PBE-CC monitor decodes) and one UE
// (per-cell reorder buffer, flow table, drain-time dispatch, and the
// network's secondary-carrier activation policy).
//
// Packages lte and nr hold only what is RAT-specific - RBG-size tables,
// numerology, HARQ unit, EN-DC glue - and hand it to NewCell as data, so a
// cross-RAT comparison isolates the effect of the numerology, not of a
// different scheduler. DESIGN.md section 3 lists the decisions on which
// the RATs differ.
package ran

import (
	"math/rand"

	"pbecc/internal/phy"
)

// Alloc describes one user's downlink grant in one slot - the information
// content of one DCI message.
type Alloc struct {
	RNTI     uint16
	FirstRBG int
	NumRBGs  int
	PRBs     int     // PRBs covered by the grant
	MCS      phy.MCS // wireless physical rate of the user
	TBBits   int     // allocated transport block size
	NDI      bool    // true = new data, false = HARQ retransmission

	// Control marks grants of control-plane-only users. It is ground
	// truth for evaluation; the PBE-CC monitor must not read it (the
	// paper's monitor cannot observe it either, and filters such users
	// by activity time and PRB thresholds instead).
	Control bool
}

// SubframeReport is everything a control-channel monitor learns about one
// cell in one scheduling slot (an LTE subframe or an NR slot; Subframe
// carries the slot index).
type SubframeReport struct {
	CellID   int
	Subframe int
	NPRB     int
	Allocs   []Alloc
}

// AllocatedPRBs sums the PRBs granted in the slot.
func (r *SubframeReport) AllocatedPRBs() int {
	n := 0
	for i := range r.Allocs {
		n += r.Allocs[i].PRBs
	}
	return n
}

// IdlePRBs returns the unallocated PRBs of the slot (the paper's Eqn. 4
// numerator contribution).
func (r *SubframeReport) IdlePRBs() int { return r.NPRB - r.AllocatedPRBs() }

// Monitor consumes per-slot control information from one cell, the role
// of the PBE-CC client's decoder threads. The report and its Allocs slice
// are reused across slots: consumers copy whatever they keep past the
// callback (core.Monitor and faults.WrapFeed both do).
type Monitor func(rep *SubframeReport)

// ControlGrant is a small allocation made to a user that is exchanging
// control-plane traffic (parameter updates, timers, security) rather than
// data - the population the paper's Figure 7 measures and PBE-CC filters.
// RBGs counts grant units: one RBG on LTE, ControlGrantPRBs contiguous
// PRBs on NR (see nr.ControlGrantPRBs).
type ControlGrant struct {
	RNTI uint16
	RBGs int
}

// ControlSource produces the control-plane grants of each subframe.
// Implementations keep their own state across subframes; package trace
// provides a population calibrated to Figure 7. The returned slice is only
// read before the next Tick call, so implementations can reuse a buffer.
type ControlSource interface {
	Tick(subframe int, rng *rand.Rand) []ControlGrant
}
