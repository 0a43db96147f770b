package nr

import (
	"math"
	"testing"
	"time"

	"pbecc/internal/core"
	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

func TestNumerologyTables(t *testing.T) {
	cases := []struct {
		mu    int
		slots int
		dur   time.Duration
	}{
		{0, 1, time.Millisecond},
		{1, 2, 500 * time.Microsecond},
		{2, 4, 250 * time.Microsecond},
		{3, 8, 125 * time.Microsecond},
	}
	for _, c := range cases {
		if got := phy.NRSlotsPerSubframe(c.mu); got != c.slots {
			t.Errorf("µ=%d slots/subframe = %d, want %d", c.mu, got, c.slots)
		}
		if got := phy.NRSlotDuration(c.mu); got != c.dur {
			t.Errorf("µ=%d slot duration = %v, want %v", c.mu, got, c.dur)
		}
	}
	// Spot-check the 3GPP carrier tables.
	if got := phy.NRCarrierPRBs(1, 100); got != 273 {
		t.Errorf("µ=1 100MHz PRBs = %d, want 273", got)
	}
	if got := phy.NRCarrierPRBs(0, 20); got != 106 {
		t.Errorf("µ=0 20MHz PRBs = %d, want 106", got)
	}
	if got := phy.NRCarrierPRBs(3, 100); got != 66 {
		t.Errorf("µ=3 100MHz PRBs = %d, want 66", got)
	}
	if got := phy.NRCarrierPRBs(0, 100); got != 0 {
		t.Errorf("µ=0 100MHz should be undefined, got %d", got)
	}
}

// TestSlotClock verifies the cell ticks 2^µ times per millisecond.
func TestSlotClock(t *testing.T) {
	for mu := 0; mu <= phy.NRMaxMu; mu++ {
		eng := sim.New(1)
		cell := NewCell(eng, Config{ID: 1, Mu: mu, BandwidthMHz: 50})
		eng.RunUntil(10 * time.Millisecond)
		want := 10 * phy.NRSlotsPerSubframe(mu)
		if cell.Slot() != want {
			t.Errorf("µ=%d: %d slots in 10 ms, want %d", mu, cell.Slot(), want)
		}
	}
}

// TestCellThroughput checks the served rate of a saturated single user
// against the analytic carrier rate across numerologies.
func TestCellThroughput(t *testing.T) {
	for _, c := range []struct {
		mu int
		bw int
	}{{0, 20}, {1, 100}, {3, 100}} {
		eng := sim.New(2)
		cell := NewCell(eng, Config{ID: 1, Mu: c.mu, BandwidthMHz: c.bw})
		ue := NewUE(eng, 1, 61)
		ch := phy.NewStaticChannel(-85, cell.Table, nil)
		ue.AddCell(cell, ch)
		sink := &netsim.Sink{}
		ue.SetDefaultHandler(sink)

		// Keep the queue saturated from a generous fixed-rate source.
		ch.Step(0, time.Millisecond)
		want := phy.NRCellRateBps(ch.MCS(), c.mu, cell.NPRB)
		src := netsim.NewCrossTraffic(eng, ue, want*1.5, 1)
		src.Start()
		eng.RunUntil(time.Second)

		got := float64(sink.Bytes) * 8
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("µ=%d %dMHz: served %.1f Mbit/s, want %.1f Mbit/s",
				c.mu, c.bw, got/1e6, want/1e6)
		}
	}
}

// TestHARQReordering injects one transport-block error and checks the 8-slot
// retransmission delay and in-order release.
func TestHARQReordering(t *testing.T) {
	eng := sim.New(3)
	cell := NewCell(eng, Config{ID: 1, Mu: 1, BandwidthMHz: 100})
	cell.ErrorModel = func(rnti uint16, seq uint64, attempt, bits int, ber float64) bool {
		return seq == 2 && attempt == 0
	}
	ue := NewUE(eng, 1, 61)
	ue.AddCell(cell, phy.NewStaticChannel(-85, cell.Table, nil))
	var lastSeq uint64
	inOrder := true
	var releases []time.Duration
	ue.SetDefaultHandler(netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		if p.Seq < lastSeq {
			inOrder = false
		}
		lastSeq = p.Seq
		releases = append(releases, now)
	}))
	for i := 0; i < 2000; i++ {
		ue.HandlePacket(0, &netsim.Packet{FlowID: 1, Seq: uint64(i), Size: netsim.MSS})
	}
	eng.RunUntil(20 * time.Millisecond)
	if !inOrder {
		t.Fatal("packets released out of order across a HARQ retransmission")
	}
	if cell.ErrorTBs != 1 {
		t.Fatalf("ErrorTBs = %d, want 1", cell.ErrorTBs)
	}
	// The retransmission lands ran.HARQDelaySlots after the error; at µ=1 that
	// is 4 ms, so some release gap must be about that long.
	slot := cell.SlotDuration()
	wantGap := time.Duration(ran.HARQDelaySlots) * slot
	found := false
	for i := 1; i < len(releases); i++ {
		gap := releases[i] - releases[i-1]
		if gap >= wantGap-slot && gap <= wantGap+2*slot {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ~%v HARQ release gap found", wantGap)
	}
}

// TestWaterFillFairness verifies two saturated users split the carrier.
func TestWaterFillFairness(t *testing.T) {
	eng := sim.New(4)
	cell := NewCell(eng, Config{ID: 1, Mu: 1, BandwidthMHz: 100})
	mk := func(id int, rnti uint16) *netsim.Sink {
		ue := NewUE(eng, id, rnti)
		ue.AddCell(cell, phy.NewStaticChannel(-90, cell.Table, nil))
		s := &netsim.Sink{}
		ue.SetDefaultHandler(s)
		src := netsim.NewCrossTraffic(eng, ue, 600e6, id)
		src.Start()
		return s
	}
	s1, s2 := mk(1, 61), mk(2, 62)
	eng.RunUntil(time.Second)
	b1, b2 := float64(s1.Bytes), float64(s2.Bytes)
	if b1 == 0 || b2 == 0 {
		t.Fatal("a user was starved")
	}
	if ratio := b1 / b2; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("unfair split: %.0f vs %.0f bytes (ratio %.2f)", b1, b2, ratio)
	}
}

// TestBlockageCollapse drives an mmWave channel through a blockage window
// and checks the served rate collapses and recovers.
func TestBlockageCollapse(t *testing.T) {
	eng := sim.New(5)
	cell := NewCell(eng, Config{ID: 1, Mu: 3, BandwidthMHz: 100})
	tr := BlockageTrajectory(-80, 35, 400*time.Millisecond, 800*time.Millisecond)
	ue := NewUE(eng, 1, 61)
	ue.AddCell(cell, phy.NewMobileChannel(tr, cell.Table, nil))
	var before, during, after float64
	ue.SetDefaultHandler(netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		switch {
		case now < 400*time.Millisecond:
			before += float64(p.Size)
		case now < 800*time.Millisecond:
			during += float64(p.Size)
		default:
			after += float64(p.Size)
		}
	}))
	src := netsim.NewCrossTraffic(eng, ue, 900e6, 1)
	src.Start()
	eng.RunUntil(1200 * time.Millisecond)
	// Equal 400 ms spans: blockage must cut the served rate by >10x. The
	// UE queue keeps at most a few ms of backlog (drops beyond the cap),
	// so the during-phase bytes cannot hide pre-blockage spillover.
	if during*10 > before {
		t.Fatalf("blockage did not collapse capacity: before=%.0f during=%.0f", before, during)
	}
	if after < before/2 {
		t.Fatalf("capacity did not recover: before=%.0f after=%.0f", before, after)
	}
}

// TestENDCActivatesAndAggregates runs an EN-DC UE under a load exceeding
// the LTE anchor and checks the NR leg activates and carries traffic.
func TestENDCActivatesAndAggregates(t *testing.T) {
	eng := sim.New(6)
	anchorCell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	nrCell := NewCell(eng, Config{ID: 101, Mu: 1, BandwidthMHz: 100})

	anchor := lte.NewUE(eng, 1, 61)
	anchor.AddCell(anchorCell, phy.NewStaticChannel(-90, phy.Table64QAM, nil))
	anchor.SetCarrierAggregation(false)
	endc := NewENDC(eng, anchor, nrCell, phy.NewStaticChannel(-90, nrCell.Table, nil))
	sink := &netsim.Sink{}
	endc.SetDefaultHandler(sink)
	endc.Start()

	// 150 Mbit/s offered load: far beyond the ~60 Mbit/s LTE anchor.
	src := netsim.NewCrossTraffic(eng, endc, 150e6, 1)
	src.Start()
	eng.RunUntil(3 * time.Second)

	if endc.Activations == 0 {
		t.Fatal("EN-DC never activated the NR secondary cell")
	}
	if !endc.nrActive {
		t.Fatal("NR leg inactive at end of saturated run")
	}
	if endc.nrLeg.Delivered == 0 {
		t.Fatal("NR leg carried no packets after activation")
	}
	got := float64(sink.Bytes) * 8 / 3 // bits per second over 3 s
	anchorOnly := anchorCell.UserRate(61) * 100 * 1000
	if got < anchorOnly*1.3 {
		t.Fatalf("aggregate rate %.1f Mbit/s not clearly above anchor-only %.1f Mbit/s",
			got/1e6, anchorOnly/1e6)
	}
}

// TestENDCDeactivates drops the offered load and checks the NR leg turns
// off again.
func TestENDCDeactivates(t *testing.T) {
	eng := sim.New(7)
	anchorCell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	nrCell := NewCell(eng, Config{ID: 101, Mu: 1, BandwidthMHz: 100})
	anchor := lte.NewUE(eng, 1, 61)
	anchor.AddCell(anchorCell, phy.NewStaticChannel(-90, phy.Table64QAM, nil))
	anchor.SetCarrierAggregation(false)
	endc := NewENDC(eng, anchor, nrCell, phy.NewStaticChannel(-90, nrCell.Table, nil))
	endc.SetDefaultHandler(&netsim.Sink{})
	endc.Start()

	high := netsim.NewCrossTraffic(eng, endc, 150e6, 1)
	low := netsim.NewCrossTraffic(eng, endc, 5e6, 1)
	eng.At(0, high.Start)
	eng.At(2*time.Second, high.Stop)
	eng.At(2*time.Second, low.Start)
	eng.RunUntil(5 * time.Second)

	if endc.Activations == 0 {
		t.Fatal("never activated")
	}
	if endc.Deactivations == 0 || endc.nrActive {
		t.Fatalf("NR leg did not deactivate after load drop (deact=%d active=%v)",
			endc.Deactivations, endc.nrActive)
	}
}

// TestMonitorAcrossRATs feeds one LTE cell and one NR µ=1 cell into a
// single monitor and checks the per-ms aggregation accounts for the slot
// clocks: an idle NR cell contributes spf times its per-slot capacity.
func TestMonitorAcrossRATs(t *testing.T) {
	eng := sim.New(8)
	lteCell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	nrCell := NewCell(eng, Config{ID: 101, Mu: 1, BandwidthMHz: 100})

	lteCh := phy.NewStaticChannel(-85, phy.Table64QAM, nil)
	nrCh := phy.NewStaticChannel(-85, nrCell.Table, nil)
	lteUE := lte.NewUE(eng, 1, 61)
	lteUE.AddCell(lteCell, lteCh)
	lteUE.SetCarrierAggregation(false)
	nrUE := NewUE(eng, 1, 61)
	nrUE.AddCell(nrCell, nrCh)

	mon := core.NewMonitor(61)
	mon.AttachCell(core.CellInfo{ID: 1, NPRB: 100,
		Rate: func() float64 { return lteCh.MCS().BitsPerPRB() },
		BER:  func() float64 { return lteCh.BER() }})
	mon.AttachCell(core.CellInfo{ID: 101, NPRB: nrCell.NPRB,
		SlotsPerSubframe: nrCell.SlotsPerSubframe(),
		CBGBits:          CodeBlockBits,
		Rate:             func() float64 { return nrCh.MCS().BitsPerPRB() },
		BER:              func() float64 { return nrCh.BER() }})
	lteCell.AttachMonitor(mon.OnSubframe)
	nrCell.AttachMonitor(mon.OnSubframe)

	eng.RunUntil(200 * time.Millisecond)

	// Both cells are idle, so per-slot capacity is R_w * NPRB (N=1).
	lteWant := lteCh.MCS().BitsPerPRB() * 100
	nrWantSlot := nrCh.MCS().BitsPerPRB() * float64(nrCell.NPRB)
	if got := mon.CellCapacity(1); math.Abs(got-lteWant) > 1 {
		t.Fatalf("LTE per-slot capacity = %.1f, want %.1f", got, lteWant)
	}
	if got := mon.CellCapacity(101); math.Abs(got-nrWantSlot) > 1 {
		t.Fatalf("NR per-slot capacity = %.1f, want %.1f", got, nrWantSlot)
	}
	if got := mon.CellCapacityPerMs(101); math.Abs(got-2*nrWantSlot) > 1 {
		t.Fatalf("NR per-ms capacity = %.1f, want %.1f (2 slots/subframe)", got, 2*nrWantSlot)
	}
	// The aggregate must translate each cell's per-ms capacity via Eqn 5:
	// the whole-TB form for LTE, the code-block-group form for NR.
	want := phy.TransportFromPhysical(lteWant, lteCh.BER()) +
		phy.TransportFromPhysicalCBG(2*nrWantSlot, nrCh.BER(), CodeBlockBits)
	if got := mon.CapacityBits(); math.Abs(got-want) > 1 {
		t.Fatalf("CapacityBits = %.1f, want %.1f", got, want)
	}
	// Fair share equals capacity on idle cells.
	if got := mon.FairShareBits(); math.Abs(got-want) > 1 {
		t.Fatalf("FairShareBits = %.1f, want %.1f", got, want)
	}
}

// TestMonitorWindowSpansSameWallClock checks that the NR cell's ring is
// scaled so a µ=3 cell's window covers the same wall time as an LTE cell's.
func TestMonitorWindowSpansSameWallClock(t *testing.T) {
	eng := sim.New(9)
	nrCell := NewCell(eng, Config{ID: 101, Mu: 3, BandwidthMHz: 100})
	nrCh := phy.NewStaticChannel(-85, nrCell.Table, nil)
	nrUE := NewUE(eng, 1, 61)
	nrUE.AddCell(nrCell, nrCh)
	nrUE.SetDefaultHandler(&netsim.Sink{})

	mon := core.NewMonitor(61)
	mon.AttachCell(core.CellInfo{ID: 101, NPRB: nrCell.NPRB,
		SlotsPerSubframe: nrCell.SlotsPerSubframe(),
		Rate:             func() float64 { return nrCh.MCS().BitsPerPRB() }})
	nrCell.AttachMonitor(mon.OnSubframe)

	// A competitor active only in the first 20 ms: with a 40 ms window the
	// monitor must still see it at t=50 ms and forget it by t=70 ms.
	comp := NewUE(eng, 2, 62)
	comp.AddCell(nrCell, phy.NewStaticChannel(-85, nrCell.Table, nil))
	comp.SetDefaultHandler(&netsim.Sink{})
	src := netsim.NewCrossTraffic(eng, comp, 400e6, 2)
	eng.At(0, src.Start)
	eng.At(20*time.Millisecond, src.Stop)

	eng.RunUntil(50 * time.Millisecond)
	if mon.DetectedUsers(101) == 0 {
		t.Fatal("competitor not visible 30 ms after it stopped (window too short)")
	}
	eng.RunUntil(70 * time.Millisecond)
	if mon.DetectedUsers(101) != 0 {
		t.Fatal("competitor still visible 50 ms after it stopped (window too long)")
	}
}
