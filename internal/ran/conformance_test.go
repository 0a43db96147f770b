package ran_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/nr"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// rat is one configuration of the shared scheduler core, built through the
// constructor scenarios use.
type rat struct {
	name    string
	newCell func(eng *sim.Engine, control ran.ControlSource) *ran.Cell
	newUE   func(eng *sim.Engine, id int, rnti uint16) *ran.UE
	// queueBytes is the RAT's default per-user RLC buffer cap.
	queueBytes int
}

var rats = []rat{
	{"lte_100prb", func(eng *sim.Engine, ctl ran.ControlSource) *ran.Cell {
		return lte.NewCell(eng, 1, 100, phy.Table64QAM, ctl)
	}, lte.NewUE, lte.DefaultPerUserQueueBytes},
	{"nr_mu0_20mhz", nrCell(0, 20), nr.NewUE, nr.DefaultPerUserQueueBytes},
	{"nr_mu1_100mhz", nrCell(1, 100), nr.NewUE, nr.DefaultPerUserQueueBytes},
	{"nr_mu3_100mhz", nrCell(3, 100), nr.NewUE, nr.DefaultPerUserQueueBytes},
}

func nrCell(mu, mhz int) func(*sim.Engine, ran.ControlSource) *ran.Cell {
	return func(eng *sim.Engine, ctl ran.ControlSource) *ran.Cell {
		return nr.NewCell(eng, nr.Config{ID: 1, Mu: mu, BandwidthMHz: mhz, Control: ctl})
	}
}

// collector gathers released packets with their delivery times.
type collector struct {
	seqs  []uint64
	times []time.Duration
	bytes int
}

func (c *collector) HandlePacket(now time.Duration, p *netsim.Packet) {
	c.seqs = append(c.seqs, p.Seq)
	c.times = append(c.times, now)
	c.bytes += p.Size
}

// attach connects a new UE at the given RSSI and prefills its queue with n
// full-size packets.
func (r rat) attach(eng *sim.Engine, cell *ran.Cell, id int, rssi float64, n int) (*ran.UE, *collector) {
	ue := r.newUE(eng, id, uint16(60+id))
	ue.AddCell(cell, phy.NewStaticChannel(rssi, cell.Table, nil))
	sink := &collector{}
	ue.SetDefaultHandler(sink)
	ue.Start()
	for i := 0; i < n; i++ {
		ue.HandlePacket(0, &netsim.Packet{FlowID: id, Seq: uint64(i), Size: netsim.MSS})
	}
	return ue, sink
}

// slots returns the wall time of n slots of the cell's numerology.
func slots(cell *ran.Cell, n int) time.Duration { return time.Duration(n) * cell.SlotDuration() }

func noErrors(uint16, uint64, int, int, float64) bool { return false }

// saturating is a prefill deep enough to keep any of the carriers under
// test backlogged for the 100-slot runs below.
const saturating = 20000

type stubControl struct{ grants []ran.ControlGrant }

func (s *stubControl) Tick(int, *rand.Rand) []ran.ControlGrant { return s.grants }

// stubBG demands a fixed backlog every slot and records what the cell
// grants it.
type stubBG struct {
	mcs    phy.MCS
	served int
}

func (s *stubBG) Demand(time.Duration) []ran.BackgroundDemand {
	return []ran.BackgroundDemand{{RNTI: 900, MCS: s.mcs, Bits: 1 << 30}}
}

func (s *stubBG) Serve(_ int, bits int) { s.served += bits }

// userPRBs sums each RNTI's granted PRBs over every report of the run.
func userPRBs(cell *ran.Cell) map[uint16]int {
	got := map[uint16]int{}
	cell.AttachMonitor(func(rep *ran.SubframeReport) {
		for _, a := range rep.Allocs {
			got[a.RNTI] += a.PRBs
		}
	})
	return got
}

// TestSchedulerConformance holds every configuration of the one scheduler
// core to the same behaviour; only numerology, RBG size, control-grant
// footprint, service rotation and HARQ unit may differ between the rows.
func TestSchedulerConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r rat)
	}{
		{"single_user_full_carrier", func(t *testing.T, r rat) {
			eng := sim.New(1)
			cell := r.newCell(eng, nil)
			cell.PerUserQueueBytes = 0
			cell.ErrorModel = noErrors
			_, sink := r.attach(eng, cell, 1, -85, saturating)
			var bitsPerSlot float64
			cell.AttachMonitor(func(rep *ran.SubframeReport) {
				if len(rep.Allocs) != 1 || rep.Allocs[0].PRBs != cell.NPRB || rep.IdlePRBs() != 0 {
					t.Fatalf("slot %d: allocs %+v, want one grant of all %d PRBs", rep.Subframe, rep.Allocs, cell.NPRB)
				}
				bitsPerSlot = float64(rep.Allocs[0].TBBits)
			})
			eng.RunUntil(slots(cell, 101)) // slot 100's blocks deliver one slot later
			want := bitsPerSlot * 100
			if got := float64(sink.bytes) * 8; math.Abs(got-want)/want > 0.02 {
				t.Fatalf("served %.0f bits in 100 slots, want ~%.0f", got, want)
			}
		}},
		{"two_equal_users_split", func(t *testing.T, r rat) {
			eng := sim.New(2)
			cell := r.newCell(eng, nil)
			cell.PerUserQueueBytes = 0
			cell.ErrorModel = noErrors // retransmission grants come on top of the fair share
			r.attach(eng, cell, 1, -85, saturating)
			r.attach(eng, cell, 2, -85, saturating)
			prbs := userPRBs(cell)
			eng.RunUntil(slots(cell, 100))
			if prbs[61]+prbs[62] != 100*cell.NPRB {
				t.Fatalf("granted %d PRBs in 100 slots, want all %d", prbs[61]+prbs[62], 100*cell.NPRB)
			}
			// The odd RBG and the partial RBG at the band edge may favour one
			// user by up to one RBG per slot: 6% of the narrowest carrier here.
			if diff := math.Abs(float64(prbs[61] - prbs[62])); diff > 0.07*float64(100*cell.NPRB) {
				t.Fatalf("unfair split: %d vs %d PRBs", prbs[61], prbs[62])
			}
		}},
		{"short_queue_releases_capacity", func(t *testing.T, r rat) {
			eng := sim.New(3)
			cell := r.newCell(eng, nil)
			cell.PerUserQueueBytes = 0
			cell.ErrorModel = noErrors
			r.attach(eng, cell, 1, -85, 4) // a trickle, gone within a slot or two
			r.attach(eng, cell, 2, -85, saturating)
			prbs := userPRBs(cell)
			eng.RunUntil(slots(cell, 100))
			if prbs[61] == 0 {
				t.Fatal("short-queue user never served")
			}
			if float64(prbs[62]) < 0.95*float64(100*cell.NPRB) {
				t.Fatalf("full-buffer user got %d of %d PRBs beside a drained competitor", prbs[62], 100*cell.NPRB)
			}
		}},
		{"harq_delay_8_slots", func(t *testing.T, r rat) {
			eng := sim.New(4)
			cell := r.newCell(eng, nil)
			cell.PerUserQueueBytes = 0
			cell.ErrorModel = func(_ uint16, seq uint64, attempt, _ int, _ float64) bool {
				return seq == 0 && attempt == 0
			}
			_, sink := r.attach(eng, cell, 1, -85, saturating)
			retxSlot := 0
			cell.AttachMonitor(func(rep *ran.SubframeReport) {
				for _, a := range rep.Allocs {
					if !a.NDI && retxSlot == 0 {
						retxSlot = rep.Subframe
					}
				}
			})
			eng.RunUntil(slots(cell, 40))
			if want := 1 + ran.HARQDelaySlots; retxSlot != want || cell.ErrorTBs != 1 {
				t.Fatalf("retransmission in slot %d after %d block errors, want slot %d after 1", retxSlot, cell.ErrorTBs, want)
			}
			// Block 0 goes out in slot 1, fails, is retransmitted in slot 9
			// and delivered one slot later; blocks 1..8 wait behind it in
			// the reorder buffer and flush at the same instant (Figure 3).
			first := sink.times[0]
			if want := slots(cell, 2+ran.HARQDelaySlots); first != want {
				t.Fatalf("first release at %v, want %v", first, want)
			}
			flushed := map[uint64]bool{}
			for i, at := range sink.times {
				if at == first {
					flushed[sink.seqs[i]] = true
				}
			}
			if len(flushed) < 2 {
				t.Fatalf("no reordering-buffer flush at %v", first)
			}
			for i := 1; i < len(sink.seqs); i++ {
				if sink.seqs[i] < sink.seqs[i-1] {
					t.Fatalf("out-of-order release across the retransmission: seq %d after %d", sink.seqs[i], sink.seqs[i-1])
				}
			}
		}},
		{"loss_after_3_retx_advances_reorder", func(t *testing.T, r rat) {
			eng := sim.New(5)
			cell := r.newCell(eng, nil)
			cell.PerUserQueueBytes = 0
			cell.ErrorModel = func(_ uint16, seq uint64, _, _ int, _ float64) bool { return seq == 0 }
			ue, sink := r.attach(eng, cell, 1, -85, saturating)
			eng.RunUntil(slots(cell, 60))
			if cell.LostTBs != 1 || ue.LostPackets == 0 {
				t.Fatalf("LostTBs = %d, LostPackets = %d after exhausting HARQ", cell.LostTBs, ue.LostPackets)
			}
			if len(sink.times) == 0 {
				t.Fatal("reordering buffer never released after permanent loss")
			}
			// Original in slot 1 plus three retransmissions 8 slots apart;
			// the loss is signalled one slot after the last attempt.
			if want := slots(cell, 2+ran.MaxRetransmissions*ran.HARQDelaySlots); sink.times[0] != want {
				t.Fatalf("post-loss release at %v, want %v", sink.times[0], want)
			}
			if sink.seqs[0] == 0 {
				t.Fatal("packets of the lost block were delivered")
			}
		}},
		{"in_order_delivery_within_cell", func(t *testing.T, r rat) {
			eng := sim.New(6)
			cell := r.newCell(eng, nil)
			cell.PerUserQueueBytes = 0
			_, sink := r.attach(eng, cell, 1, -98, saturating) // weak signal: natural block errors
			eng.RunUntil(slots(cell, 400))
			if cell.ErrorTBs == 0 {
				t.Fatal("no block errors: the run does not exercise reordering")
			}
			for i := 1; i < len(sink.seqs); i++ {
				if sink.seqs[i] < sink.seqs[i-1] {
					t.Fatalf("out-of-order release: seq %d after %d", sink.seqs[i], sink.seqs[i-1])
				}
			}
		}},
		{"natural_errors_1s", func(t *testing.T, r rat) {
			// One second under the default error model, which draws block
			// errors from each user's BER, so HARQ retransmissions take
			// their share of the carrier. Every user sits at -85 dBm.
			const rssi = -85
			var rate float64 // analytic carrier rate at rssi, bits/s
			run := func(seed int64, prefill ...int) []*collector {
				eng := sim.New(seed)
				cell := r.newCell(eng, nil)
				cell.PerUserQueueBytes = 0
				mcs := phy.MCSFromSINR(phy.SINRFromRSSI(rssi), cell.Table)
				rate = mcs.BitsPerPRB() * float64(cell.NPRB) * float64(time.Second/cell.SlotDuration())
				var sinks []*collector
				for i, n := range prefill {
					if n < 0 { // saturate the carrier for the whole second
						n = int(1.2*rate/8/netsim.MSS) + 1
					}
					_, sink := r.attach(eng, cell, i+1, rssi, n)
					sinks = append(sinks, sink)
				}
				eng.RunUntil(time.Second)
				return sinks
			}
			mbps := func(c *collector) float64 { return float64(c.bytes) * 8 / 1e6 }

			// floor is the share of the carrier rate a saturated user must
			// reach, skew the largest byte ratio of two equal users.
			floor, skew := 0.95, 1.05
			switch r.name {
			case "lte_100prb":
				floor = 0.85 // CQI 14's block errors cost about 13 % here
			case "nr_mu3_100mhz":
				skew = 1.15 // 66 PRBs: one user keeps the odd 4-PRB RBG (DESIGN.md §3)
			}
			if got := mbps(run(1, -1)[0]); got < floor*rate/1e6 || got > 1.05*rate/1e6 {
				t.Fatalf("a saturated user alone got %.1f Mbit/s of a %.1f Mbit/s carrier", got, rate/1e6)
			}
			pair := run(2, -1, -1)
			if ratio := mbps(pair[0]) / mbps(pair[1]); ratio < 1/skew || ratio > skew {
				t.Fatalf("unfair split: %.1f vs %.1f Mbit/s (ratio %.3f)", mbps(pair[0]), mbps(pair[1]), ratio)
			}
			// A 100-packet trickle drains within a few slots and leaves
			// the carrier to the full-buffer user.
			short := run(3, 100, -1)
			if len(short[0].seqs) != 100 || mbps(short[1]) < floor*rate/1e6 {
				t.Fatalf("trickle user got %d of 100 packets; full-buffer user %.1f Mbit/s of %.1f",
					len(short[0].seqs), mbps(short[1]), rate/1e6)
			}
		}},
		{"per_user_queue_cap", func(t *testing.T, r rat) {
			eng := sim.New(7)
			cell := r.newCell(eng, nil)
			limit := cell.PerUserQueueBytes
			if limit != r.queueBytes {
				t.Fatalf("default per-user queue cap = %d, want %d", limit, r.queueBytes)
			}
			r.attach(eng, cell, 1, -85, limit/netsim.MSS+100)
			if cell.QueueDropped != 100 {
				t.Fatalf("QueueDropped = %d, want the 100 packets beyond the cap", cell.QueueDropped)
			}
			if got := cell.UserQueueBits(61) / 8; got > limit {
				t.Fatalf("queued %d bytes exceeds the cap of %d", got, limit)
			}
		}},
		{"duplicate_rnti_panics", func(t *testing.T, r rat) {
			eng := sim.New(8)
			cell := r.newCell(eng, nil)
			r.attach(eng, cell, 1, -85, 0)
			defer func() {
				if recover() == nil {
					t.Fatal("duplicate RNTI did not panic")
				}
			}()
			r.newUE(eng, 2, 61).AddCell(cell, phy.NewStaticChannel(-85, cell.Table, nil))
		}},
		{"nil_background", func(t *testing.T, r rat) {
			eng := sim.New(9)
			cell := r.newCell(eng, nil)
			r.attach(eng, cell, 1, -85, saturating)
			prbs := userPRBs(cell)
			eng.RunUntil(slots(cell, 20))
			if cell.FluidPRBs != 0 || len(prbs) != 1 || prbs[61] == 0 {
				t.Fatalf("no background source, yet FluidPRBs = %d and grants by RNTI = %v", cell.FluidPRBs, prbs)
			}
		}},
		{"background_as_ndi_data_allocs", func(t *testing.T, r rat) {
			eng := sim.New(10)
			cell := r.newCell(eng, nil)
			bg := &stubBG{mcs: phy.MCS{CQI: 11, Table: cell.Table, Streams: 1}}
			cell.SetBackground(bg)
			allocs, prbs := 0, 0
			cell.AttachMonitor(func(rep *ran.SubframeReport) {
				for _, a := range rep.Allocs {
					if a.RNTI != 900 || !a.NDI || a.Control || a.TBBits <= 0 {
						t.Fatalf("background alloc must look like a fresh data grant: %+v", a)
					}
					allocs++
					prbs += a.PRBs
				}
			})
			eng.RunUntil(slots(cell, 40))
			// Alone on the cell with unbounded demand: the whole carrier,
			// every slot, with no packet ever delivered.
			if allocs != 40 || prbs != 40*cell.NPRB {
				t.Fatalf("background got %d allocs / %d PRBs in 40 slots, want 40 / %d", allocs, prbs, 40*cell.NPRB)
			}
			if cell.FluidPRBs != uint64(prbs) || bg.served <= 0 || cell.TotalTBs != 0 {
				t.Fatalf("FluidPRBs = %d (want %d), served = %d, TotalTBs = %d", cell.FluidPRBs, prbs, bg.served, cell.TotalTBs)
			}
		}},
		{"grants_never_exceed_carrier", func(t *testing.T, r rat) {
			// Everything at once: control grants, three users with natural
			// errors (so HARQ retransmissions), and a background session.
			eng := sim.New(11)
			cell := r.newCell(eng, &stubControl{grants: []ran.ControlGrant{{RNTI: 5000, RBGs: 1}, {RNTI: 5001, RBGs: 2}}})
			cell.PerUserQueueBytes = 0
			cell.SetBackground(&stubBG{mcs: phy.MCS{CQI: 9, Table: cell.Table, Streams: 1}})
			for id, rssi := range []float64{-85, -98, -101} {
				r.attach(eng, cell, id+1, rssi, saturating)
			}
			busy := 0
			cell.AttachMonitor(func(rep *ran.SubframeReport) {
				next := 0
				for _, a := range rep.Allocs {
					if a.PRBs <= 0 || a.FirstRBG < next {
						t.Fatalf("slot %d: empty or overlapping grant %+v in %+v", rep.Subframe, a, rep.Allocs)
					}
					next = a.FirstRBG
				}
				if rep.AllocatedPRBs() > rep.NPRB {
					t.Fatalf("slot %d: granted %d of %d PRBs", rep.Subframe, rep.AllocatedPRBs(), rep.NPRB)
				}
				if rep.IdlePRBs() == 0 {
					busy++
				}
			})
			eng.RunUntil(slots(cell, 400))
			if cell.RetxPRBs == 0 || cell.ControlPRBs == 0 || cell.FluidPRBs == 0 || cell.DataPRBs == 0 {
				t.Fatalf("mix not exercised: retx %d control %d fluid %d data %d PRBs",
					cell.RetxPRBs, cell.ControlPRBs, cell.FluidPRBs, cell.DataPRBs)
			}
			if busy < 390 {
				t.Fatalf("only %d of 400 saturated slots were fully granted", busy)
			}
		}},
	}
	for _, r := range rats {
		for _, c := range cases {
			t.Run(r.name+"/"+c.name, func(t *testing.T) { c.run(t, r) })
		}
	}
}
