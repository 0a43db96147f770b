package ran

import (
	"pbecc/internal/netsim"
	"pbecc/internal/sim"
)

// cellKey is the engine-local stock of cell storage.
var cellKey = sim.NewLocalKey()

// cellStock hands the storage a run's cells grew - transport blocks,
// packet lists, the HARQ ring's slot lists and the delivery queue - to
// the next run's cells on a recycled engine, in the order the cells are
// built, as a sim.Stock does for slices. Recycling first collects what
// each cell still had out when the run stopped: blocks awaiting a HARQ
// retransmission and the lists they, the delivery queue and the reorder
// buffers held. A cell therefore starts with every block and list its
// predecessor made, not only the ones that happened to be free.
type cellStock struct {
	cells []*Cell
	kept  []cellStorage
	next  int
}

// cellStorage is one cell's recycled containers, all empty.
type cellStorage struct {
	tbFree     []*transportBlock
	listFree   [][]*netsim.Packet
	retx       retxRing
	deliveries []tbDelivery
}

// cellStockOf returns eng's cell stock, installing an empty one on first
// use.
func cellStockOf(eng *sim.Engine) *cellStock {
	if s, ok := eng.Local(cellKey).(*cellStock); ok {
		return s
	}
	s := &cellStock{}
	eng.SetLocal(cellKey, s)
	return s
}

// take registers c for the next recycle and returns the next kept
// storage, or none when the previous run built fewer cells.
func (s *cellStock) take(c *Cell) cellStorage {
	s.cells = append(s.cells, c)
	if s.next == len(s.kept) {
		return cellStorage{}
	}
	st := s.kept[s.next]
	s.kept[s.next] = cellStorage{}
	s.next++
	return st
}

// Recycle implements sim.Recycler: every registered cell's storage,
// reclaimed, becomes the stock; storage the run did not take is dropped.
func (s *cellStock) Recycle() {
	clear(s.kept)
	s.kept = s.kept[:0]
	for _, c := range s.cells {
		s.kept = append(s.kept, c.reclaim())
	}
	clear(s.cells)
	s.cells = s.cells[:0]
	s.next = 0
}

// reclaim empties the cell's containers for a cell of the next run: the
// blocks and lists still out go back to the free lists. The run is over,
// so nothing reads them again; the packet pool has taken the packets back.
func (c *Cell) reclaim() cellStorage {
	for i := range c.deliveries {
		c.putList(c.deliveries[i].pkts)
	}
	clear(c.deliveries)
	for i := range c.retx {
		for _, tb := range c.retx[i] {
			c.putList(tb.completed)
			c.recycle(tb)
		}
		clear(c.retx[i])
		c.retx[i] = c.retx[i][:0]
	}
	for _, u := range c.users {
		for j := 0; j < u.reorder.ring.Len(); j++ {
			if a := u.reorder.ring.At(j); a.held {
				c.putList(a.packets)
			}
		}
	}
	return cellStorage{tbFree: c.tbFree, listFree: c.listFree, retx: c.retx, deliveries: c.deliveries[:0]}
}
