package core

import (
	"math"
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
)

// --- Wire format ---

func TestRateWireRoundTrip(t *testing.T) {
	for _, bps := range []float64{1e6, 12e6, 55e6, 180e6} {
		got := DecodeRate(EncodeRate(bps))
		if math.Abs(got-bps)/bps > 0.01 {
			t.Fatalf("wire round trip %.0f -> %.0f (>1%% error)", bps, got)
		}
	}
}

func TestRateWireZero(t *testing.T) {
	if EncodeRate(0) != 0 || DecodeRate(0) != 0 {
		t.Fatal("zero must encode to zero")
	}
	if EncodeRate(-5) != 0 {
		t.Fatal("negative rate must encode to zero")
	}
}

func TestRateWireExtremes(t *testing.T) {
	// Extremely slow rates saturate the 32-bit interval.
	if EncodeRate(1e-6) != math.MaxUint32 {
		t.Fatal("slow rate must clamp to max interval")
	}
	// Extremely fast rates clamp to a 1 microsecond interval (12 Gbit/s).
	if EncodeRate(1e15) != 1 {
		t.Fatal("fast rate must clamp to 1us interval")
	}
}

// --- Detector (§4.2.2) ---

func TestDetectorThreshold(t *testing.T) {
	d := NewDetector()
	d.Observe(0, 40*time.Millisecond, 10)
	want := 40*time.Millisecond + RetxAllowance + JitterAllowance
	if d.Threshold() != want {
		t.Fatalf("threshold = %v, want %v", d.Threshold(), want)
	}
}

func TestDetectorSwitchesAfterNpkt(t *testing.T) {
	d := NewDetector()
	d.Observe(0, 40*time.Millisecond, 5)
	// HARQ-sized excursions below D_th never switch.
	for i := 0; i < 100; i++ {
		if d.Observe(time.Duration(i)*time.Millisecond, 60*time.Millisecond, 5) {
			t.Fatal("switched below threshold")
		}
	}
	// Sustained delay above D_th switches after npkt packets.
	n := 0
	for i := 0; i < 20; i++ {
		n++
		if d.Observe(time.Second+time.Duration(i)*time.Millisecond, 90*time.Millisecond, 5) {
			break
		}
	}
	if !d.InternetBottleneck() {
		t.Fatal("never switched to Internet-bottleneck state")
	}
	if n != 5 {
		t.Fatalf("switched after %d packets, want 5 (Npkt)", n)
	}
	// And back after npkt in-band packets.
	for i := 0; i < 5; i++ {
		d.Observe(2*time.Second+time.Duration(i)*time.Millisecond, 45*time.Millisecond, 5)
	}
	if d.InternetBottleneck() {
		t.Fatal("never switched back to wireless state")
	}
	if d.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", d.Transitions)
	}
}

func TestDetectorNpktFloor(t *testing.T) {
	d := NewDetector()
	d.Observe(0, 10*time.Millisecond, 0)
	// npkt clamps to 3: two outliers must not switch.
	d.Observe(time.Millisecond, 200*time.Millisecond, 0)
	if d.Observe(2*time.Millisecond, 200*time.Millisecond, 0) {
		t.Fatal("switched after 2 packets despite floor of 3")
	}
}

// --- Monitor (Eqns 1-5, Figure 5/7 logic) ---

func report(cellID, nprb int, allocs ...ran.Alloc) *ran.SubframeReport {
	return &ran.SubframeReport{CellID: cellID, Subframe: 0, NPRB: nprb, Allocs: allocs}
}

func alloc(rnti uint16, prbs, cqi int) ran.Alloc {
	return ran.Alloc{RNTI: rnti, PRBs: prbs,
		MCS: phy.MCS{CQI: cqi, Table: phy.Table64QAM, Streams: 1}, NDI: true}
}

func newTestMonitor() *Monitor {
	m := NewMonitor(61)
	m.AttachCell(CellInfo{
		ID: 1, NPRB: 100,
		Rate: func() float64 { return 400 },
		BER:  func() float64 { return 1e-6 },
	})
	return m
}

func TestMonitorIdleCellFairShare(t *testing.T) {
	m := newTestMonitor()
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100))
	}
	// Alone on an idle 100-PRB cell at 400 bits/PRB: C_f physical =
	// 40000 bits/subframe; translated downward by overhead.
	cf := m.CellFairShare(1)
	if cf != 40000 {
		t.Fatalf("physical fair share = %v, want 40000", cf)
	}
	ct := m.FairShareBits()
	if ct >= cf || ct < 0.85*cf {
		t.Fatalf("translated fair share = %v, want a bit under %v", ct, cf)
	}
	if m.ActiveUsers(1) != 1 {
		t.Fatalf("N = %d, want 1 (self)", m.ActiveUsers(1))
	}
}

func TestMonitorNoiseHook(t *testing.T) {
	m := newTestMonitor()
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100))
	}
	clean := m.CapacityBits()
	cleanFS := m.FairShareBits()
	m.Noise = func(v float64) float64 { return v * 1.5 }
	if got := m.CapacityBits(); math.Abs(got-1.5*clean) > 1e-9 {
		t.Fatalf("noisy CapacityBits = %v, want %v", got, 1.5*clean)
	}
	if got := m.FairShareBits(); math.Abs(got-1.5*cleanFS) > 1e-9 {
		t.Fatalf("noisy FairShareBits = %v, want %v", got, 1.5*cleanFS)
	}
	m.Noise = func(v float64) float64 { return -1 }
	if got := m.CapacityBits(); got != 0 {
		t.Fatalf("negative noise output not clamped: %v", got)
	}
	m.Noise = nil
	if got := m.CapacityBits(); math.Abs(got-clean) > 1e-9 {
		t.Fatalf("CapacityBits after clearing Noise = %v, want %v", got, clean)
	}
}

func TestMonitorCapacityTracksOwnAllocation(t *testing.T) {
	m := newTestMonitor()
	// I hold 60 PRBs at CQI 11 (398.7 bits/PRB), 40 idle, nobody else.
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 60, 11)))
	}
	// Eqn 3: R_w*(P_a + P_idle/N) = R_w*(60+40/1) = R_w*100.
	rw := phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1}.BitsPerPRB()
	want := rw * 100
	if got := m.CellCapacity(1); math.Abs(got-want) > 1 {
		t.Fatalf("C_p = %v, want %v", got, want)
	}
}

func TestMonitorCompetitorHalvesShare(t *testing.T) {
	m := newTestMonitor()
	// A real competitor: active many subframes with many PRBs.
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 50, 11), alloc(62, 50, 11)))
	}
	if n := m.ActiveUsers(1); n != 2 {
		t.Fatalf("N = %d, want 2", n)
	}
	// Eqn 3: my 50 PRBs + 0 idle: C_p = R_w*50.
	rw := phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1}.BitsPerPRB()
	if got := m.CellCapacity(1); math.Abs(got-rw*50) > 1 {
		t.Fatalf("C_p with competitor = %v, want %v", got, rw*50)
	}
}

func TestMonitorIdleSharedByN(t *testing.T) {
	m := newTestMonitor()
	// Competitor holds 40, I hold 20, 40 idle: C_p = R_w*(20 + 40/2).
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 20, 11), alloc(62, 40, 11)))
	}
	rw := phy.MCS{CQI: 11, Table: phy.Table64QAM, Streams: 1}.BitsPerPRB()
	want := rw * (20 + 40.0/2)
	if got := m.CellCapacity(1); math.Abs(got-want) > 1 {
		t.Fatalf("C_p = %v, want %v", got, want)
	}
}

func TestMonitorFiltersControlTraffic(t *testing.T) {
	m := newTestMonitor()
	// Control users: 4 PRBs for 1 subframe each, a new RNTI every
	// subframe (the Figure 7 population).
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100,
			alloc(61, 50, 11),
			alloc(uint16(1000+i), 4, 5)))
	}
	if n := m.ActiveUsers(1); n != 1 {
		t.Fatalf("N = %d, want 1 (control users filtered)", n)
	}
	if d := m.DetectedUsers(1); d != 40 {
		t.Fatalf("detected users = %d, want 40 before filtering", d)
	}
	// Ablation: without the filter N explodes, shrinking the fair share.
	m.UseFilter = false
	if n := m.ActiveUsers(1); n != 41 {
		t.Fatalf("unfiltered N = %d, want 41", n)
	}
}

func TestMonitorFilterKeepsPersistentSmallUser(t *testing.T) {
	m := newTestMonitor()
	// A user with 4 PRBs every subframe: Ta=40 > 1 but Pa = 4 is NOT > 4,
	// so it is still filtered (the paper's strict thresholds).
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 50, 11), alloc(77, 4, 5)))
	}
	if n := m.ActiveUsers(1); n != 1 {
		t.Fatalf("N = %d, want 1 (Pa=4 filtered)", n)
	}
	// 5 PRBs for 2+ subframes passes.
	m2 := newTestMonitor()
	for i := 0; i < 40; i++ {
		m2.OnSubframe(report(1, 100, alloc(61, 50, 11), alloc(77, 5, 5)))
	}
	if n := m2.ActiveUsers(1); n != 2 {
		t.Fatalf("N = %d, want 2 (5-PRB persistent user kept)", n)
	}
}

func TestMonitorWindowEviction(t *testing.T) {
	m := newTestMonitor()
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 50, 11), alloc(62, 50, 11)))
	}
	if m.ActiveUsers(1) != 2 {
		t.Fatal("competitor not seen")
	}
	// Competitor leaves; within one window the count must return to 1.
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 100, 11)))
	}
	if n := m.ActiveUsers(1); n != 1 {
		t.Fatalf("N after eviction = %d, want 1", n)
	}
}

func TestMonitorMultiCellSums(t *testing.T) {
	m := newTestMonitor()
	m.AttachCell(CellInfo{ID: 2, NPRB: 50,
		Rate: func() float64 { return 400 },
		BER:  func() float64 { return 1e-6 }})
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 100, 11)))
		m.OnSubframe(report(2, 50, alloc(61, 50, 11)))
	}
	one := m.CellCapacity(1)
	two := m.CellCapacity(2)
	if one <= 0 || two <= 0 {
		t.Fatal("per-cell capacities must be positive")
	}
	total := m.CapacityBits()
	sum := phy.TransportFromPhysical(one, 1e-6) + phy.TransportFromPhysical(two, 1e-6)
	if math.Abs(total-sum) > 1 {
		t.Fatalf("CapacityBits = %v, want %v", total, sum)
	}
}

func TestMonitorDetachCell(t *testing.T) {
	m := newTestMonitor()
	m.AttachCell(CellInfo{ID: 2, NPRB: 50, Rate: func() float64 { return 400 }})
	m.DetachCell(2)
	if len(m.ActiveCellIDs()) != 1 || m.ActiveCellIDs()[0] != 1 {
		t.Fatalf("active cells after detach = %v", m.ActiveCellIDs())
	}
	if m.CellCapacity(2) != 0 {
		t.Fatal("detached cell must report zero capacity")
	}
}

func TestMonitorReattachResetsWindow(t *testing.T) {
	m := newTestMonitor()
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 50, 11), alloc(62, 50, 11)))
	}
	m.AttachCell(CellInfo{ID: 1, NPRB: 100, Rate: func() float64 { return 400 }})
	if m.DetectedUsers(1) != 0 {
		t.Fatal("reattach must reset the window (§4.1 restart)")
	}
}

// --- Sender mode machine ---

func ackWith(now time.Duration, rate float64, internet bool) cc.AckSample {
	return cc.AckSample{
		Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
		AckedBytes: 1500, DeliveryRate: 20e6,
		FeedbackRate: rate, InternetBottleneck: internet,
	}
}

func TestSenderRampsToTarget(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	early := s.PacingRate()
	if early >= 40e6*0.5 {
		t.Fatalf("pacing right after first feedback = %v, want ramping from low", early)
	}
	// After 3 RTTs (120 ms) the ramp must complete.
	s.OnAck(ackWith(130*time.Millisecond, 40e6, false))
	if got := s.PacingRate(); math.Abs(got-40e6) > 1e5 {
		t.Fatalf("pacing after ramp = %v, want 40e6", got)
	}
}

func TestSenderRampMonotone(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	prev := -1.0
	for ms := 0; ms <= 140; ms += 5 {
		s.OnAck(ackWith(time.Duration(ms)*time.Millisecond, 40e6, false))
		r := s.PacingRate()
		if r < prev {
			t.Fatalf("ramp not monotone at %dms: %v < %v", ms, r, prev)
		}
		prev = r
	}
}

func TestSenderQuenchImmediate(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	s.OnAck(ackWith(200*time.Millisecond, 40e6, false))
	// Capacity collapse: a competitor arrived.
	s.OnAck(ackWith(201*time.Millisecond, 20e6, false))
	if got := s.PacingRate(); got > 20e6+1 {
		t.Fatalf("pacing after quench = %v, want <= 20e6 immediately", got)
	}
}

func TestSenderReRampsOnJump(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 20e6, false))
	s.OnAck(ackWith(200*time.Millisecond, 20e6, false))
	// A secondary carrier activates: capacity doubles. The sender must
	// approach the new fair share linearly, not jump (§4.1).
	s.OnAck(ackWith(201*time.Millisecond, 40e6, false))
	r := s.PacingRate()
	if r > 25e6 {
		t.Fatalf("pacing right after jump = %v, want near 20e6 (ramping)", r)
	}
	s.OnAck(ackWith(400*time.Millisecond, 40e6, false))
	if got := s.PacingRate(); math.Abs(got-40e6) > 1e5 {
		t.Fatalf("pacing after re-ramp = %v, want 40e6", got)
	}
}

func TestSenderDrainThenInternet(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	s.OnAck(ackWith(100*time.Millisecond, 40e6, false))
	if s.Mode() != ModeWireless {
		t.Fatal("must start wireless")
	}
	// Internet bottleneck detected: one-RTprop drain at 0.5*BtlBw.
	s.OnAck(ackWith(200*time.Millisecond, 30e6, true))
	if s.Mode() != ModeDrain {
		t.Fatalf("mode = %v, want drain", s.Mode())
	}
	if got := s.PacingRate(); math.Abs(got-10e6) > 1e5 {
		t.Fatalf("drain pacing = %v, want 0.5*BtlBw = 10e6", got)
	}
	// After one RTprop the sender enters the cellular-tailored BBR.
	s.OnAck(ackWith(250*time.Millisecond, 30e6, true))
	if s.Mode() != ModeInternet {
		t.Fatalf("mode = %v, want internet", s.Mode())
	}
	if s.DrainEntries != 1 || s.InternetEntries != 1 {
		t.Fatalf("counters = %d/%d", s.DrainEntries, s.InternetEntries)
	}
}

func TestSenderInternetProbeCappedByCf(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	s.OnAck(ackWith(100*time.Millisecond, 40e6, false))
	s.OnAck(ackWith(200*time.Millisecond, 15e6, true))
	s.OnAck(ackWith(260*time.Millisecond, 15e6, true))
	if s.Mode() != ModeInternet {
		t.Skip("internet mode not reached")
	}
	// Walk through the gain cycle; whenever the pacing gain exceeds 1,
	// the probe rate must respect Eqn 7's C_f cap.
	for ms := 260; ms < 1500; ms += 5 {
		s.OnAck(ackWith(time.Duration(ms)*time.Millisecond, 15e6, true))
		if s.PacingRate() > 15e6+1 {
			t.Fatalf("probe rate %v exceeds C_f cap 15e6", s.PacingRate())
		}
	}
}

func TestSenderSwitchBackToWireless(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	s.OnAck(ackWith(100*time.Millisecond, 40e6, false))
	s.OnAck(ackWith(200*time.Millisecond, 30e6, true))
	s.OnAck(ackWith(260*time.Millisecond, 30e6, true))
	s.OnAck(ackWith(400*time.Millisecond, 40e6, false))
	if s.Mode() != ModeWireless {
		t.Fatalf("mode = %v, want wireless after state bit clears", s.Mode())
	}
}

func TestSenderDrainAbortsIfStateClears(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	s.OnAck(ackWith(200*time.Millisecond, 30e6, true))
	if s.Mode() != ModeDrain {
		t.Fatal("want drain")
	}
	s.OnAck(ackWith(210*time.Millisecond, 40e6, false))
	if s.Mode() != ModeWireless {
		t.Fatalf("mode = %v, want wireless (drain aborted)", s.Mode())
	}
}

func TestSenderCWNDTracksBDP(t *testing.T) {
	s := NewSender()
	s.OnAck(ackWith(0, 40e6, false))
	s.OnAck(ackWith(200*time.Millisecond, 40e6, false))
	// BDP at 40 Mbit/s x (40+10) ms = 250 kB; cwnd = 1.25*BDP + 4 MSS.
	want := 250000 + 250000/4 + 4*1500
	got := s.CWND()
	if math.Abs(float64(got-want)) > 0.05*float64(want) {
		t.Fatalf("cwnd = %d, want ~%d", got, want)
	}
}

func TestSenderMisreportGuard(t *testing.T) {
	s := NewSender()
	s.MisreportGuard = 2
	// Delivery rate says 20 Mbit/s; a malicious receiver reports 500.
	s.OnAck(ackWith(0, 500e6, false))
	s.OnAck(ackWith(200*time.Millisecond, 500e6, false))
	if got := s.Target(); got > 2*20e6+1 {
		t.Fatalf("guarded target = %v, want <= 40e6", got)
	}
}

func TestSenderNoFeedbackStaysQuiet(t *testing.T) {
	s := NewSender()
	a := ackWith(0, 0, false)
	s.OnAck(a)
	if s.PacingRate() != 0 {
		t.Fatal("pacing without feedback must be 0 (unpaced, window-limited)")
	}
	if s.CWND() != cc.InitialCwnd {
		t.Fatalf("cwnd = %d, want initial", s.CWND())
	}
}

func TestModeString(t *testing.T) {
	if ModeWireless.String() != "wireless" || ModeDrain.String() != "drain" ||
		ModeInternet.String() != "internet" || Mode(9).String() != "?" {
		t.Fatal("mode strings")
	}
}

func TestClientInternetFraction(t *testing.T) {
	m := newTestMonitor()
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 100, 11)))
	}
	c := NewClient(m)
	// Half the time below threshold, half far above.
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		c.Feedback(now, 30*time.Millisecond, 1500)
	}
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		c.Feedback(now, 300*time.Millisecond, 1500)
	}
	frac := c.InternetFraction()
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("internet fraction = %v, want ~0.5", frac)
	}
}

func TestClientFeedbackQuantized(t *testing.T) {
	m := newTestMonitor()
	for i := 0; i < 40; i++ {
		m.OnSubframe(report(1, 100, alloc(61, 100, 11)))
	}
	c := NewClient(m)
	rate, btl := c.Feedback(time.Millisecond, 30*time.Millisecond, 1500)
	if btl {
		t.Fatal("fresh connection must start in wireless state")
	}
	if rate <= 0 {
		t.Fatal("no feedback rate")
	}
	if rate != QuantizeRate(rate) {
		t.Fatal("feedback not quantized through the wire format")
	}
}

// TestClientsShareMonitorCapacity: a device's connections split its
// capacity equally (§6.3.4), so each of two clients on one monitor feeds
// back exactly half of what a lone client on an identical monitor does.
func TestClientsShareMonitorCapacity(t *testing.T) {
	feed := func(m *Monitor) {
		for i := 0; i < 40; i++ {
			m.OnSubframe(report(1, 100, alloc(61, 60, 11), alloc(62, 40, 9)))
		}
	}
	lone, shared := newTestMonitor(), newTestMonitor()
	feed(lone)
	feed(shared)
	solo := NewClient(lone)
	a, b := NewClient(shared), NewClient(shared)
	now := time.Duration(0)
	for i, owd := range []time.Duration{30, 30, 300, 300, 300, 30} {
		now += time.Millisecond
		want, wantBtl := solo.Feedback(now, owd*time.Millisecond, 1500)
		for _, c := range []*Client{a, b} {
			got, btl := c.Feedback(now, owd*time.Millisecond, 1500)
			if math.Float64bits(got) != math.Float64bits(want/2) || btl != wantBtl {
				t.Fatalf("step %d: shared client fed back %v (internet %v), want half of %v (internet %v)",
					i, got, btl, want, wantBtl)
			}
		}
	}
}
