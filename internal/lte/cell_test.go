package lte

import (
	"math/rand"
	"testing"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
)

// collector gathers released packets with their delivery times.
type collector struct {
	packets []*netsim.Packet
	times   []time.Duration
	bytes   int
}

func (c *collector) HandlePacket(now time.Duration, p *netsim.Packet) {
	c.packets = append(c.packets, p)
	c.times = append(c.times, now)
	c.bytes += p.Size
}

// newTestUE wires a UE with one cell at the given RSSI and returns the
// pieces. Carrier aggregation is off unless enabled by the test.
func newTestUE(eng *sim.Engine, nprb int, rssi float64) (*UE, *Cell, *collector) {
	cell := NewCell(eng, 1, nprb, phy.Table64QAM, nil)
	cell.PerUserQueueBytes = 0 // tests prefill large queues
	ue := NewUE(eng, 1, 61)
	ch := phy.NewStaticChannel(rssi, phy.Table64QAM, nil)
	ue.AddCell(cell, ch)
	ue.SetCarrierAggregation(false)
	sink := &collector{}
	ue.SetDefaultHandler(sink)
	ue.Start()
	return ue, cell, sink
}

func fillQueue(ue *UE, n int) {
	for i := 0; i < n; i++ {
		ue.HandlePacket(0, &netsim.Packet{FlowID: 1, Seq: uint64(i), Size: netsim.MSS})
	}
}

func TestSingleUserGetsFullCell(t *testing.T) {
	eng := sim.New(1)
	ue, cell, sink := newTestUE(eng, 100, -85)
	_ = cell
	fillQueue(ue, 10000)
	eng.RunUntil(time.Second)

	// At -85 dBm (SINR 22.5, CQI 14 64QAM, 2 streams): 5.1152*120*2 =
	// 1227 bits/PRB, 100 PRB => ~122 Mbit/s. In 1 s minus ramp the UE
	// should receive on that order, less HARQ losses.
	gotMbit := float64(sink.bytes) * 8 / 1e6
	if gotMbit < 100 || gotMbit > 130 {
		t.Fatalf("single user got %.1f Mbit in 1s, want ~120", gotMbit)
	}
}

func TestTwoUsersShareEqually(t *testing.T) {
	eng := sim.New(2)
	cell := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	cell.PerUserQueueBytes = 0
	sinks := [2]*collector{{}, {}}
	for i := 0; i < 2; i++ {
		ue := NewUE(eng, i+1, uint16(61+i))
		ue.AddCell(cell, phy.NewStaticChannel(-85, phy.Table64QAM, nil))
		ue.SetCarrierAggregation(false)
		ue.SetDefaultHandler(sinks[i])
		ue.Start()
		for k := 0; k < 20000; k++ {
			ue.HandlePacket(0, &netsim.Packet{FlowID: i, Seq: uint64(k), Size: netsim.MSS})
		}
	}
	eng.RunUntil(time.Second)
	a, b := float64(sinks[0].bytes), float64(sinks[1].bytes)
	if a == 0 || b == 0 {
		t.Fatal("a user starved")
	}
	ratio := a / b
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("unfair split: %.0f vs %.0f bytes (ratio %.3f)", a, b, ratio)
	}
}

func TestWeakUserGetsLowerRateSamePRBs(t *testing.T) {
	eng := sim.New(3)
	cell := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	cell.PerUserQueueBytes = 0
	sinks := [2]*collector{{}, {}}
	rssi := []float64{-85, -105}
	var prbs [2]int
	cell.AttachMonitor(func(rep *SubframeReport) {
		for _, a := range rep.Allocs {
			if a.RNTI == 61 {
				prbs[0] += a.PRBs
			}
			if a.RNTI == 62 {
				prbs[1] += a.PRBs
			}
		}
	})
	for i := 0; i < 2; i++ {
		ue := NewUE(eng, i+1, uint16(61+i))
		ue.AddCell(cell, phy.NewStaticChannel(rssi[i], phy.Table64QAM, nil))
		ue.SetCarrierAggregation(false)
		ue.SetDefaultHandler(sinks[i])
		ue.Start()
		for k := 0; k < 20000; k++ {
			ue.HandlePacket(0, &netsim.Packet{FlowID: i, Seq: uint64(k), Size: netsim.MSS})
		}
	}
	eng.RunUntil(time.Second)
	// PRB-fair scheduler: equal PRBs, unequal throughput.
	pr := float64(prbs[0]) / float64(prbs[1])
	if pr < 0.9 || pr > 1.1 {
		t.Fatalf("PRB split not fair: %d vs %d", prbs[0], prbs[1])
	}
	if float64(sinks[0].bytes) < 2*float64(sinks[1].bytes) {
		t.Fatalf("strong user (%d B) should far out-run weak user (%d B)",
			sinks[0].bytes, sinks[1].bytes)
	}
}

func TestShortQueueReleasesCapacity(t *testing.T) {
	eng := sim.New(4)
	cell := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	cell.PerUserQueueBytes = 0
	sinks := [2]*collector{{}, {}}
	// User 0 has a tiny trickle; user 1 is full-buffer. User 1 should get
	// nearly the whole cell.
	for i := 0; i < 2; i++ {
		ue := NewUE(eng, i+1, uint16(61+i))
		ue.AddCell(cell, phy.NewStaticChannel(-85, phy.Table64QAM, nil))
		ue.SetCarrierAggregation(false)
		ue.SetDefaultHandler(sinks[i])
		ue.Start()
		n := 40000
		if i == 0 {
			n = 100
		}
		for k := 0; k < n; k++ {
			ue.HandlePacket(0, &netsim.Packet{FlowID: i, Seq: uint64(k), Size: netsim.MSS})
		}
	}
	eng.RunUntil(time.Second)
	if float64(sinks[1].bytes)*8/1e6 < 100 {
		t.Fatalf("full-buffer user got only %.1f Mbit with an idle competitor",
			float64(sinks[1].bytes)*8/1e6)
	}
}

func TestHARQRetransmissionDelay(t *testing.T) {
	eng := sim.New(5)
	ue, cell, sink := newTestUE(eng, 100, -85)
	// Fail exactly the first transport block once.
	cell.ErrorModel = func(rnti uint16, seq uint64, attempt, bits int, ber float64) bool {
		return seq == 0 && attempt == 0
	}
	fillQueue(ue, 200)
	eng.RunUntil(100 * time.Millisecond)
	if len(sink.times) == 0 {
		t.Fatal("nothing delivered")
	}
	// TB 0 is sent in subframe 1 (t=1ms), fails, retransmits at subframe
	// 9, delivered at 10ms. All of TB 1..8's packets are buffered behind
	// it and released at the same instant (Figure 3).
	first := sink.times[0]
	if first != 10*time.Millisecond {
		t.Fatalf("first release at %v, want 10ms (8ms HARQ + 1ms tx + 1ms orig)", first)
	}
	// Several TBs must be released at exactly the same time (the
	// reordering buffer flush).
	flush := 0
	for _, at := range sink.times {
		if at == first {
			flush++
		}
	}
	if flush < 2 {
		t.Fatalf("no reordering-buffer flush: only %d packets at %v", flush, first)
	}
}

func TestHARQMaxRetransmissionsLoss(t *testing.T) {
	eng := sim.New(6)
	ue, cell, sink := newTestUE(eng, 100, -85)
	cell.ErrorModel = func(rnti uint16, seq uint64, attempt, bits int, ber float64) bool {
		return seq == 0 // TB 0 always fails
	}
	fillQueue(ue, 200)
	eng.RunUntil(200 * time.Millisecond)
	if ue.LostPackets == 0 {
		t.Fatal("no packets lost after exhausting HARQ retransmissions")
	}
	if cell.LostTBs != 1 {
		t.Fatalf("LostTBs = %d, want 1", cell.LostTBs)
	}
	// Subsequent packets must still be delivered (buffer released).
	if len(sink.packets) == 0 {
		t.Fatal("reordering buffer never released after permanent loss")
	}
	// Loss is declared after original + 3 retx: subframe 1 + 3*8, delivery
	// event at +1ms => 26ms.
	if sink.times[0] != 26*time.Millisecond {
		t.Fatalf("post-loss release at %v, want 26ms", sink.times[0])
	}
}

func TestInOrderDeliveryWithinCell(t *testing.T) {
	eng := sim.New(7)
	ue, cell, sink := newTestUE(eng, 100, -98)
	// Natural random errors at -98 dBm with big TBs.
	_ = cell
	fillQueue(ue, 5000)
	eng.RunUntil(time.Second)
	var last uint64
	for i, p := range sink.packets {
		if i > 0 && p.Seq < last {
			t.Fatalf("out-of-order release: seq %d after %d", p.Seq, last)
		}
		last = p.Seq
	}
}

func TestControlGrantsVisibleAndFirst(t *testing.T) {
	eng := sim.New(8)
	src := &stubControl{grants: []ran.ControlGrant{{RNTI: 5000, RBGs: 1}}}
	cell := NewCell(eng, 1, 100, phy.Table64QAM, src)
	var reports []*SubframeReport
	cell.AttachMonitor(func(rep *SubframeReport) { reports = append(reports, rep) })
	eng.RunUntil(10 * time.Millisecond)
	if len(reports) != 10 {
		t.Fatalf("reports = %d, want 10", len(reports))
	}
	for _, rep := range reports {
		if len(rep.Allocs) != 1 {
			t.Fatalf("allocs = %d, want 1 control grant", len(rep.Allocs))
		}
		a := rep.Allocs[0]
		if !a.Control || a.RNTI != 5000 || a.PRBs != 4 {
			t.Fatalf("control alloc = %+v", a)
		}
		if rep.IdlePRBs() != 96 {
			t.Fatalf("idle PRBs = %d, want 96", rep.IdlePRBs())
		}
	}
	if cell.ControlPRBs != 40 {
		t.Fatalf("ControlPRBs = %d, want 40", cell.ControlPRBs)
	}
}

type stubControl struct{ grants []ran.ControlGrant }

func (s *stubControl) Tick(subframe int, rng *rand.Rand) []ran.ControlGrant {
	return s.grants
}

func TestEnqueueUnknownRNTI(t *testing.T) {
	eng := sim.New(10)
	cell := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	if cell.Enqueue(99, &netsim.Packet{Size: 100}) {
		t.Fatal("enqueue to unknown RNTI must fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, int) {
		eng := sim.New(42)
		ue, cell, sink := newTestUE(eng, 100, -98)
		fillQueue(ue, 5000)
		eng.RunUntil(500 * time.Millisecond)
		return cell.ErrorTBs, sink.bytes
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", e1, b1, e2, b2)
	}
}

// TestPRBsInRBGSpanLastGroup: a 50-PRB carrier has P=3, so 17 RBGs of
// which the last holds 2 PRBs. Grants that reach the band edge must count
// PRBs, not whole RBGs.
func TestPRBsInRBGSpanLastGroup(t *testing.T) {
	eng := sim.New(12)
	// Control takes the first 16 RBGs, leaving a data user the last one.
	src := &stubControl{grants: []ran.ControlGrant{{RNTI: 5000, RBGs: 16}}}
	cell := NewCell(eng, 1, 50, phy.Table64QAM, src)
	ue := NewUE(eng, 1, 61)
	ue.AddCell(cell, phy.NewStaticChannel(-85, phy.Table64QAM, nil))
	ue.SetDefaultHandler(&collector{})
	fillQueue(ue, 100)
	cell.AttachMonitor(func(rep *SubframeReport) {
		if len(rep.Allocs) != 2 {
			t.Fatalf("allocs = %+v, want control + data", rep.Allocs)
		}
		ctl, data := rep.Allocs[0], rep.Allocs[1]
		if ctl.FirstRBG != 0 || ctl.NumRBGs != 16 || ctl.PRBs != 48 {
			t.Fatalf("control grant = %+v, want RBGs [0,16) = 48 PRBs", ctl)
		}
		if data.FirstRBG != 16 || data.NumRBGs != 1 || data.PRBs != 2 {
			t.Fatalf("last RBG grant = %+v, want RBG 16 = 2 PRBs", data)
		}
	})
	eng.RunUntil(5 * time.Millisecond)

	// Alone on the carrier the user spans all 17 RBGs = 50 PRBs.
	eng2 := sim.New(12)
	ue2, cell2, _ := newTestUE(eng2, 50, -85)
	fillQueue(ue2, 1000)
	cell2.AttachMonitor(func(rep *SubframeReport) {
		if a := rep.Allocs[0]; a.NumRBGs != 17 || a.PRBs != 50 {
			t.Fatalf("full span = %+v, want 17 RBGs = 50 PRBs", a)
		}
	})
	eng2.RunUntil(5 * time.Millisecond)
}

func TestErrorRateMatchesModel(t *testing.T) {
	eng := sim.New(13)
	ue, cell, _ := newTestUE(eng, 100, -98)
	fillQueue(ue, 60000)
	eng.RunUntil(3 * time.Second)
	if cell.TotalTBs < 1000 {
		t.Fatalf("too few TBs: %d", cell.TotalTBs)
	}
	got := float64(cell.ErrorTBs) / float64(cell.TotalTBs)
	// Full cell at -98 dBm: CQI ~10, 1227.. compute loosely: TB ~ tens of
	// kbit at 2.5e-6 BER gives error rates of roughly 5-30%.
	if got < 0.02 || got > 0.4 {
		t.Fatalf("TB error rate %.3f outside plausible band", got)
	}
}

func TestPerUserQueueCap(t *testing.T) {
	eng := sim.New(14)
	cell := NewCell(eng, 1, 100, phy.Table64QAM, nil)
	if cell.PerUserQueueBytes != DefaultPerUserQueueBytes {
		t.Fatalf("default cap = %d", cell.PerUserQueueBytes)
	}
	ue := NewUE(eng, 1, 61)
	ue.AddCell(cell, phy.NewStaticChannel(-85, phy.Table64QAM, nil))
	ue.SetCarrierAggregation(false)
	ue.SetDefaultHandler(&netsim.Sink{})
	ue.Start()
	// Prefill far beyond the cap: the excess must be dropped at enqueue.
	for i := 0; i < 5000; i++ {
		ue.HandlePacket(0, &netsim.Packet{FlowID: 1, Seq: uint64(i), Size: netsim.MSS})
	}
	if cell.QueueDropped == 0 {
		t.Fatal("no drops beyond the per-user queue cap")
	}
	if got := cell.UserQueueBits(61) / 8; got > DefaultPerUserQueueBytes {
		t.Fatalf("queued %d bytes exceeds cap", got)
	}
}
