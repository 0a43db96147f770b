package core

// CellFairShare returns one cell's contribution to Eqn 2 in physical bits
// per scheduling slot: R_w * P_cell/N.
func (m *Monitor) CellFairShare(cellID int) float64 {
	if ct := m.track(cellID); ct != nil {
		return ct.fairShare(m.UseFilter)
	}
	return 0
}
