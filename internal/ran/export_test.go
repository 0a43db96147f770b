package ran

import "pbecc/internal/phy"

// AttachUser connects a UE to this cell without UE.AddCell, for the
// external tests of a bare attachment.
func (c *Cell) AttachUser(ue *UE, rnti uint16, ch *phy.Channel) { c.attach(ue, rnti, ch) }
