package ran

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// refReorder is the reference model the reorder ring is checked against:
// the map keyed by block sequence it replaced, kept here only as the
// test's oracle.
type refReorder struct {
	next     uint64
	pending  map[uint64]refBlock
	released []uint64 // packet sequences handed to the flow, in order
	lost     uint64
}

type refBlock struct {
	pkts []uint64
	ok   bool
}

func (r *refReorder) deliver(seq uint64, pkts []uint64, ok bool) {
	r.pending[seq] = refBlock{pkts, ok}
	for {
		b, exists := r.pending[r.next]
		if !exists {
			return
		}
		delete(r.pending, r.next)
		r.next++
		if b.ok {
			r.released = append(r.released, b.pkts...)
		} else {
			r.lost += uint64(len(b.pkts))
		}
	}
}

type seqSink struct{ seqs []uint64 }

func (s *seqSink) HandlePacket(_ time.Duration, p *netsim.Packet) { s.seqs = append(s.seqs, p.Seq) }

// TestReorderRingMatchesReference feeds the reorder ring and the map model
// the same arrival script: blocks delayed by up to MaxRetransmissions HARQ
// round trips (so up to 24 later blocks overtake them), blocks lost after
// the last attempt, empty blocks, one block postponed well past the HARQ
// bound (the ring must grow again), and finally blocks still waiting
// behind one that will never come.
func TestReorderRingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		eng := sim.New(seed)
		cell := NewCell(eng, CellConfig{ID: 1, NPRB: 100, Table: phy.Table64QAM,
			SlotsPerSubframe: 1, RBGSize: 4, ControlGrantPRBs: 4})
		ue := NewUE(eng, 1, 61, false)
		ue.AddCell(cell, phy.NewStaticChannel(-85, phy.Table64QAM, nil))
		sink := &seqSink{}
		ue.SetDefaultHandler(sink)
		cu := ue.users[0]
		pool := netsim.PoolOf(eng)

		// The script: block k is transmitted in slot k and arrives after
		// its HARQ delay; ties arrive in transmit order.
		type arrival struct {
			seq  uint64
			slot int
			ok   bool
		}
		const blocks = 600
		rng := rand.New(rand.NewSource(seed))
		var script []arrival
		for k := 0; k < blocks; k++ {
			a := arrival{seq: uint64(k), slot: k, ok: true}
			switch f := rng.Intn(20); {
			case k == blocks/2:
				a.slot += 45 // retransmission postponed by full slots
			case f < 3:
				a.slot += (f + 1) * HARQDelaySlots // one to three retransmissions
			case f == 3:
				a.slot, a.ok = k+MaxRetransmissions*HARQDelaySlots, false
			}
			script = append(script, a)
		}
		sort.SliceStable(script, func(i, j int) bool { return script[i].slot < script[j].slot })
		const missing = blocks - 12 // never arrives

		ref := &refReorder{pending: map[uint64]refBlock{}}
		lists := 0 // packet lists made because the cell had none to recycle
		var lostHandles []netsim.PacketHandle
		nextPkt := uint64(0)
		span := 0 // the most blocks the ring has spanned
		for _, a := range script {
			if a.seq == missing {
				continue
			}
			// Build the block's packet list the way buildTB does.
			var list []*netsim.Packet
			if n := len(cell.listFree); n > 0 {
				list, cell.listFree = cell.listFree[n-1], cell.listFree[:n-1]
			}
			var want []uint64
			for n := rng.Intn(4); n > 0; n-- {
				p := pool.Get()
				p.Seq, p.Size = nextPkt, netsim.MSS
				nextPkt++
				if cap(list) == 0 {
					lists++
				}
				list = append(list, p)
				want = append(want, p.Seq)
				if !a.ok {
					lostHandles = append(lostHandles, netsim.HandleOf(p))
				}
			}
			ref.deliver(a.seq, want, a.ok)
			ue.deliverTB(cu, a.seq, list, a.ok)

			held := 0
			for i := 0; i < cu.reorder.ring.Len(); i++ {
				if cu.reorder.ring.At(i).held {
					held++
				}
			}
			span = max(span, cu.reorder.ring.Len())
			if cu.reorder.next != ref.next || held != len(ref.pending) || ue.LostPackets != ref.lost || ue.Delivered != uint64(len(ref.released)) {
				t.Fatalf("seed %d, after block %d: next %d held %d lost %d delivered %d; model next %d held %d lost %d delivered %d",
					seed, a.seq, cu.reorder.next, held, ue.LostPackets, ue.Delivered, ref.next, len(ref.pending), ref.lost, len(ref.released))
			}
		}
		if len(sink.seqs) != len(ref.released) {
			t.Fatalf("seed %d: released %d packets, model %d", seed, len(sink.seqs), len(ref.released))
		}
		for i, s := range sink.seqs {
			if s != ref.released[i] {
				t.Fatalf("seed %d: release %d is packet %d, model says %d", seed, i, s, ref.released[i])
			}
		}
		for _, h := range lostHandles {
			if h.Live() {
				t.Fatalf("seed %d: a packet of a HARQ-lost block was not released", seed)
			}
		}
		if ref.next != missing || len(ref.pending) != 11 {
			t.Fatalf("seed %d: script ended at block %d with %d pending, want %d with 11 behind it", seed, ref.next, len(ref.pending), missing)
		}
		if span <= 32 {
			t.Fatalf("seed %d: ring spanned at most %d blocks, the postponed block should have grown it to 64 slots", seed, span)
		}
		// Every list is back with the cell, emptied, except those held by
		// the blocks still pending: one owner at a time, never shared.
		heldLists := 0
		for i := 0; i < cu.reorder.ring.Len(); i++ {
			if s := cu.reorder.ring.At(i); s.held && cap(s.packets) > 0 {
				heldLists++
			}
		}
		if len(cell.listFree)+heldLists != lists {
			t.Fatalf("seed %d: %d lists free + %d pending, %d were made", seed, len(cell.listFree), heldLists, lists)
		}
		for _, l := range cell.listFree {
			for _, p := range l[:cap(l)] {
				if len(l) != 0 || p != nil {
					t.Fatalf("seed %d: a recycled list still references a packet", seed)
				}
			}
		}
	}
}
