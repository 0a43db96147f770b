package lte

import (
	"testing"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/pdcch"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// newCAUE builds a UE with two configured cells and a fixed-rate offered
// load source, reproducing the Figure 2 setup: a primary cell whose
// capacity the load exceeds, and a secondary that should activate.
func newCAUE(eng *sim.Engine) (*UE, *Cell, *Cell, *collector) {
	primary := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	secondary := NewCell(eng, 2, 100, phy.Table64QAM, nil)
	ue := NewUE(eng, 1, 61)
	// -93 dBm: SINR 15.3, CQI 11 (eff 3.32), 1 stream => 398 bits/PRB,
	// ~39.9 Mbit/s full cell.
	ue.AddCell(primary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
	ue.AddCell(secondary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
	sink := &collector{}
	ue.SetDefaultHandler(sink)
	ue.Start()
	return ue, primary, secondary, sink
}

func TestCarrierActivationUnderLoad(t *testing.T) {
	eng := sim.New(20)
	ue, _, _, _ := newCAUE(eng)
	// 40 Mbit/s offered load exceeds the ~39.9 Mbit/s primary capacity.
	ct := netsim.NewCrossTraffic(eng, ue, 40e6, 1)
	ct.Start()
	eng.RunUntil(2 * time.Second)
	if ue.Activations == 0 {
		t.Fatal("secondary cell never activated under overload")
	}
	if len(ue.ActiveCells()) != 2 {
		t.Fatalf("active cells = %d, want 2", len(ue.ActiveCells()))
	}
}

func TestCarrierActivationTiming(t *testing.T) {
	eng := sim.New(21)
	ue, _, _, _ := newCAUE(eng)
	var activatedAt time.Duration
	ue.OnActiveChange(func(active []*Cell) {
		if len(active) == 2 && activatedAt == 0 {
			activatedAt = eng.Now()
		}
	})
	ct := netsim.NewCrossTraffic(eng, ue, 40e6, 1)
	ct.Start()
	eng.RunUntil(time.Second)
	// The paper's Figure 2 shows activation ~130 ms after flow start; our
	// policy needs the 100-subframe window plus the 150 ms holdoff.
	if activatedAt < 100*time.Millisecond || activatedAt > 400*time.Millisecond {
		t.Fatalf("activated at %v, want 100-400ms", activatedAt)
	}
}

func TestCarrierDeactivationAfterLoadDrop(t *testing.T) {
	eng := sim.New(22)
	ue, _, _, _ := newCAUE(eng)
	ct := netsim.NewCrossTraffic(eng, ue, 40e6, 1)
	ct.Start()
	eng.RunUntil(2 * time.Second)
	if len(ue.ActiveCells()) != 2 {
		t.Skip("activation did not happen; covered by other test")
	}
	// Drop to 6 Mbit/s, well below the primary's capacity (Figure 2).
	ct.Stop()
	ct2 := netsim.NewCrossTraffic(eng, ue, 6e6, 1)
	ct2.Start()
	eng.RunUntil(5 * time.Second)
	if ue.Deactivations == 0 {
		t.Fatal("secondary cell never deactivated after load drop")
	}
	if len(ue.ActiveCells()) != 1 {
		t.Fatalf("active cells = %d, want 1", len(ue.ActiveCells()))
	}
}

func TestNoActivationAtLowLoad(t *testing.T) {
	eng := sim.New(23)
	ue, _, _, _ := newCAUE(eng)
	ct := netsim.NewCrossTraffic(eng, ue, 6e6, 1)
	ct.Start()
	eng.RunUntil(3 * time.Second)
	if ue.Activations != 0 {
		t.Fatal("secondary activated for a 6 Mbit/s flow on a ~40 Mbit/s cell")
	}
}

func TestNoActivationWhenCADisabled(t *testing.T) {
	eng := sim.New(24)
	ue, _, _, _ := newCAUE(eng)
	ue.SetCarrierAggregation(false)
	ct := netsim.NewCrossTraffic(eng, ue, 40e6, 1)
	ct.Start()
	eng.RunUntil(2 * time.Second)
	if ue.Activations != 0 {
		t.Fatal("CA-disabled UE activated a secondary cell")
	}
}

func TestAggregateThroughputExceedsPrimary(t *testing.T) {
	eng := sim.New(25)
	ue, _, _, sink := newCAUE(eng)
	ct := netsim.NewCrossTraffic(eng, ue, 70e6, 1)
	ct.Start()
	eng.RunUntil(4 * time.Second)
	// Last-second throughput must exceed single-cell capacity.
	lastBytes := 0
	for i, at := range sink.times {
		if at > 3*time.Second {
			lastBytes += sink.packets[i].Size
		}
	}
	gotMbit := float64(lastBytes) * 8 / 1e6
	if gotMbit < 45 {
		t.Fatalf("aggregated throughput %.1f Mbit/s, want > primary-only ~40", gotMbit)
	}
}

func TestDispatcherBalancesCells(t *testing.T) {
	eng := sim.New(26)
	ue, primary, secondary, _ := newCAUE(eng)
	ct := netsim.NewCrossTraffic(eng, ue, 70e6, 1)
	ct.Start()
	eng.RunUntil(3 * time.Second)
	if len(ue.ActiveCells()) != 2 {
		t.Skip("needs both cells active")
	}
	p := primary.DataPRBs
	s := secondary.DataPRBs
	if s == 0 {
		t.Fatal("secondary cell never carried data")
	}
	ratio := float64(p) / float64(s)
	if ratio < 0.5 || ratio > 10 {
		t.Fatalf("extreme imbalance: primary %d vs secondary %d PRBs", p, s)
	}
}

func TestFlowRouting(t *testing.T) {
	eng := sim.New(27)
	ue, _, sink := func() (*UE, *Cell, *collector) {
		u, c, s := newTestUE(eng, 100, -85)
		return u, c, s
	}()
	flowSink := &collector{}
	ue.RegisterFlow(7, flowSink)
	ue.HandlePacket(0, &netsim.Packet{FlowID: 7, Seq: 1, Size: netsim.MSS})
	ue.HandlePacket(0, &netsim.Packet{FlowID: 8, Seq: 1, Size: netsim.MSS})
	eng.RunUntil(50 * time.Millisecond)
	if len(flowSink.packets) != 1 {
		t.Fatalf("flow 7 got %d packets, want 1", len(flowSink.packets))
	}
	if len(sink.packets) != 1 {
		t.Fatalf("default handler got %d packets, want 1", len(sink.packets))
	}
}

func TestUEStopIdempotent(t *testing.T) {
	eng := sim.New(28)
	ue, _, _ := newTestUE(eng, 100, -85)
	ue.Stop()
	ue.Stop()
	ue.Start()
	ue.Start() // must not double-tick
	eng.RunUntil(10 * time.Millisecond)
}

// --- Report encode/decode equivalence (struct mode vs coded mode) ---

func TestReportCodedRoundTrip(t *testing.T) {
	rep := &SubframeReport{
		CellID: 3, Subframe: 5, NPRB: 100,
		Allocs: []Alloc{
			{RNTI: 61, FirstRBG: 0, NumRBGs: 10, PRBs: 40,
				MCS: phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1}, NDI: true},
			{RNTI: 62, FirstRBG: 10, NumRBGs: 5, PRBs: 20,
				MCS: phy.MCS{CQI: 14, Table: phy.Table64QAM, Streams: 2}, NDI: false},
			{RNTI: 5000, FirstRBG: 15, NumRBGs: 1, PRBs: 4,
				MCS: phy.MCS{CQI: 5, Table: phy.Table64QAM, Streams: 1}, NDI: true, Control: true},
		},
	}
	for i := range rep.Allocs {
		a := &rep.Allocs[i]
		a.TBBits = int(float64(a.PRBs) * a.MCS.BitsPerPRB())
	}
	region := EncodeReport(rep, 3)
	if region == nil {
		t.Fatal("encode failed")
	}
	got := DecodeReport(region, 3, phy.Table64QAM, pdcch.NewDecoder(0))
	if got.Subframe != rep.Subframe || got.NPRB != rep.NPRB {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Allocs) != len(rep.Allocs) {
		t.Fatalf("decoded %d allocs, want %d", len(got.Allocs), len(rep.Allocs))
	}
	byRNTI := map[uint16]Alloc{}
	for _, a := range got.Allocs {
		byRNTI[a.RNTI] = a
	}
	for _, want := range rep.Allocs {
		g, ok := byRNTI[want.RNTI]
		if !ok {
			t.Fatalf("RNTI %d missing from decoded report", want.RNTI)
		}
		if g.PRBs != want.PRBs || g.NDI != want.NDI ||
			g.MCS.CQI != want.MCS.CQI || g.MCS.Streams != want.MCS.Streams {
			t.Fatalf("RNTI %d: decoded %+v, want %+v", want.RNTI, g, want)
		}
		if g.TBBits != want.TBBits {
			t.Fatalf("RNTI %d: TBBits %d, want %d", want.RNTI, g.TBBits, want.TBBits)
		}
	}
	// The idle-PRB computation (Eqn 4) must agree between modes.
	if got.AllocatedPRBs() != rep.AllocatedPRBs() {
		t.Fatalf("allocated PRBs: decoded %d, struct %d", got.AllocatedPRBs(), rep.AllocatedPRBs())
	}
}

func TestReportCodedRoundTripLiveCell(t *testing.T) {
	// End to end: run a real cell, encode each report, blind-decode it,
	// and compare the capacity-relevant fields.
	eng := sim.New(30)
	ue, cell, _ := newTestUE(eng, 100, -85)
	checked := 0
	cell.AttachMonitor(func(rep *SubframeReport) {
		if len(rep.Allocs) == 0 || rep.Subframe > 30 {
			return
		}
		region := EncodeReport(rep, 3)
		if region == nil {
			t.Errorf("subframe %d: encode failed", rep.Subframe)
			return
		}
		got := DecodeReport(region, cell.ID, phy.Table64QAM, pdcch.NewDecoder(0))
		if got.AllocatedPRBs() != rep.AllocatedPRBs() {
			t.Errorf("subframe %d: PRBs %d != %d", rep.Subframe, got.AllocatedPRBs(), rep.AllocatedPRBs())
		}
		if len(got.Allocs) != len(rep.Allocs) {
			t.Errorf("subframe %d: %d allocs != %d", rep.Subframe, len(got.Allocs), len(rep.Allocs))
		}
		checked++
	})
	fillQueue(ue, 3000)
	eng.RunUntil(32 * time.Millisecond)
	if checked < 10 {
		t.Fatalf("only %d subframes checked", checked)
	}
}

func TestSubframeReportHelpers(t *testing.T) {
	rep := &SubframeReport{NPRB: 100, Allocs: []Alloc{{PRBs: 30}, {PRBs: 20}}}
	if rep.AllocatedPRBs() != 50 || rep.IdlePRBs() != 50 {
		t.Fatalf("helpers wrong: %d/%d", rep.AllocatedPRBs(), rep.IdlePRBs())
	}
}

// TestSingleCarrierUEArmsNoTicker: a device whose carrier set cannot
// change schedules nothing; its activation ticker appears with the second
// carrier, even one added after Start.
func TestSingleCarrierUEArmsNoTicker(t *testing.T) {
	eng := sim.New(1)
	primary := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	secondary := NewCell(eng, 2, 100, phy.Table64QAM, nil)
	ue := NewUE(eng, 1, 61)
	ue.AddCell(primary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
	before := eng.Pending()
	ue.Start()
	if got := eng.Pending(); got != before {
		t.Fatalf("single-carrier Start left %d events pending, want %d", got, before)
	}
	ue.AddCell(secondary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
	if got := eng.Pending(); got != before+1 {
		t.Fatalf("second carrier after Start: %d events pending, want %d", got, before+1)
	}
	ue.Stop()
	if got := eng.Pending(); got != before {
		t.Fatalf("after Stop: %d events pending, want %d", got, before)
	}
}

// TestSecondCarrierAfterStartActivatesAlike: a secondary carrier added
// after Start activates (and the device delivers) exactly as one
// configured before Start.
func TestSecondCarrierAfterStartActivatesAlike(t *testing.T) {
	type outcome struct {
		activatedAt         time.Duration
		activations, deacts uint64
		delivered           uint64
	}
	run := func(addAfterStart bool) outcome {
		eng := sim.New(21)
		primary := NewCell(eng, 1, 100, phy.Table64QAM, nil)
		secondary := NewCell(eng, 2, 100, phy.Table64QAM, nil)
		ue := NewUE(eng, 1, 61)
		ue.AddCell(primary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
		if addAfterStart {
			ue.Start()
		}
		ue.AddCell(secondary, phy.NewStaticChannel(-93, phy.Table64QAM, nil))
		if !addAfterStart {
			ue.Start()
		}
		ue.SetDefaultHandler(&collector{})
		var o outcome
		ue.OnActiveChange(func(active []*Cell) {
			if len(active) == 2 && o.activatedAt == 0 {
				o.activatedAt = eng.Now()
			}
		})
		netsim.NewCrossTraffic(eng, ue, 40e6, 1).Start()
		eng.RunUntil(time.Second)
		o.activations, o.deacts, o.delivered = ue.Activations, ue.Deactivations, ue.Delivered
		return o
	}
	before, after := run(false), run(true)
	if before.activations == 0 {
		t.Fatal("secondary never activated under overload")
	}
	if before != after {
		t.Fatalf("added after Start: %+v, configured before Start: %+v", after, before)
	}
}
