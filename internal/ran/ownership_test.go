package ran_test

import (
	"testing"
	"time"

	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/nr"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// pooled draws n full-size packets of one flow from the engine's pool and
// returns them with their staleness handles.
func pooled(eng *sim.Engine, flow, n int) ([]*netsim.Packet, []netsim.PacketHandle) {
	pool := netsim.PoolOf(eng)
	ps := make([]*netsim.Packet, n)
	hs := make([]netsim.PacketHandle, n)
	for i := range ps {
		ps[i] = pool.Get()
		ps[i].FlowID, ps[i].Seq, ps[i].Size = flow, uint64(i), netsim.MSS
		hs[i] = netsim.HandleOf(ps[i])
	}
	return ps, hs
}

// TestUnrouteablePacketReleased: a packet released by the reorder buffer
// for a flow nobody registered, on a device with no default handler, dies
// at the device's flow table - on every device type.
func TestUnrouteablePacketReleased(t *testing.T) {
	devices := []struct {
		name  string
		build func(eng *sim.Engine) netsim.Handler
	}{
		{"lte_ue", func(eng *sim.Engine) netsim.Handler {
			ue := lte.NewUE(eng, 1, 61)
			ue.AddCell(lte.NewCell(eng, 1, 100, phy.Table64QAM, nil), phy.NewStaticChannel(-85, phy.Table64QAM, nil))
			return ue
		}},
		{"nr_ue", func(eng *sim.Engine) netsim.Handler {
			cell := nr.NewCell(eng, nr.Config{ID: 1, Mu: 1, BandwidthMHz: 100})
			ue := nr.NewUE(eng, 1, 61)
			ue.AddCell(cell, phy.NewStaticChannel(-85, cell.Table, nil))
			return ue
		}},
		{"endc", func(eng *sim.Engine) netsim.Handler {
			anchor := lte.NewUE(eng, 1, 61)
			anchor.AddCell(lte.NewCell(eng, 1, 100, phy.Table64QAM, nil), phy.NewStaticChannel(-85, phy.Table64QAM, nil))
			cell := nr.NewCell(eng, nr.Config{ID: 101, Mu: 1, BandwidthMHz: 100})
			return nr.NewENDC(eng, 1, 61, anchor, cell, phy.NewStaticChannel(-85, cell.Table, nil))
		}},
	}
	for _, d := range devices {
		t.Run(d.name, func(t *testing.T) {
			eng := sim.New(1)
			dev := d.build(eng)
			ps, handles := pooled(eng, 7, 1)
			dev.HandlePacket(0, ps[0])
			eng.RunUntil(50 * time.Millisecond) // ample for HARQ retries
			if handles[0].Live() {
				t.Fatal("unrouteable packet was dropped without being released")
			}
		})
	}
}

// TestBareAttachmentDeliversOrReleases: a device attached with
// Cell.AttachUser alone - it never called AddCell, so it configured no
// carrier of its own - still owns a reorder buffer through the attachment:
// its blocks are released in order to the flow table (here with no
// handler, so they die there) instead of being dropped unreleased.
func TestBareAttachmentDeliversOrReleases(t *testing.T) {
	for _, r := range rats {
		t.Run(r.name, func(t *testing.T) {
			eng := sim.New(1)
			cell := r.newCell(eng, nil)
			cell.ErrorModel = noErrors
			ue := r.newUE(eng, 1, 61)
			cell.AttachUser(ue, 61, phy.NewStaticChannel(-85, cell.Table, nil))
			ps, handles := pooled(eng, 1, 3)
			for _, p := range ps {
				if !cell.Enqueue(61, p) {
					t.Fatal("enqueue refused on an attached RNTI")
				}
			}
			eng.RunUntil(slots(cell, 4))
			if ue.Delivered != 3 {
				t.Fatalf("Delivered = %d, want the three packets through the reorder buffer", ue.Delivered)
			}
			for i, h := range handles {
				if h.Live() {
					t.Fatalf("packet %d was dropped without being released", i)
				}
			}
		})
	}
}

// TestDeliveryCycleAllocatesNothing pins the downlink hop: once queues,
// transport blocks and packet lists have been through the free lists,
// enqueue -> slot -> coalesced delivery -> reorder -> route allocates
// nothing on any configuration.
func TestDeliveryCycleAllocatesNothing(t *testing.T) {
	for _, r := range rats {
		t.Run(r.name, func(t *testing.T) {
			eng := sim.New(1)
			cell := r.newCell(eng, nil)
			cell.ErrorModel = noErrors
			pool := netsim.PoolOf(eng)
			var ues []*ran.UE
			for id := 1; id <= 3; id++ {
				ue := r.newUE(eng, id, uint16(60+id))
				ue.AddCell(cell, phy.NewStaticChannel(-85, cell.Table, nil))
				ue.SetDefaultHandler(&netsim.Sink{Pool: pool})
				ue.Start()
				ues = append(ues, ue)
			}
			cycle := func() {
				for _, ue := range ues {
					for i := 0; i < 4; i++ {
						p := pool.Get()
						p.FlowID, p.Size = ue.ID, netsim.MSS
						ue.HandlePacket(eng.Now(), p)
					}
				}
				eng.RunUntil(eng.Now() + slots(cell, 2))
			}
			for i := 0; i < 50; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("delivery cycle allocates %.1f objects, want 0", allocs)
			}
			// The last cycle's tail may still be on the air.
			if got := ues[0].Delivered; got < 4*(50+200) {
				t.Fatalf("UE 1 received %d of %d packets: the cycle is not delivering", got, 4*(50+201))
			}
		})
	}
}
