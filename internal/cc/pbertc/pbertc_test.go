package pbertc

import (
	"testing"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/cctest"
	"pbecc/internal/cc/gcc"
	"pbecc/internal/core"
	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/sim"
	"pbecc/internal/stats"
)

// TestConformance runs the sender side through the shared single-
// bottleneck suite: without a receiver-side estimator it must behave
// like GCC - bounded by delivery rate, not blasting open-loop.
func TestConformance(t *testing.T) {
	r := cctest.Run(1, New(), 20e6, 80*time.Millisecond, 1<<20, 3*time.Second)
	if r.ThroughputMbps < 5 || r.ThroughputMbps > 21 {
		t.Fatalf("throughput %.1f Mbit/s on a 20 Mbit/s link", r.ThroughputMbps)
	}
	if r.Received == 0 {
		t.Fatal("no packets delivered")
	}
}

// runLoop drives one controller+feedback pair over a single bottleneck
// and reports second-half goodput and one-way delay. feedMon, when
// non-nil, installs the synthetic physical-layer feed on the engine.
func runLoop(t *testing.T, ctrl cc.Controller, fb cc.FeedbackSource, feedMon func(eng *sim.Engine),
	rateBps float64, queuePkts int, dur time.Duration) (tputMbps, p95ms, minms float64) {
	t.Helper()
	eng := sim.New(7)
	rtt := 40 * time.Millisecond
	var snd *cc.Sender
	ackLink := netsim.NewLink(eng, 0, rtt/2, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		snd.HandlePacket(now, p)
	}))
	rcv := cc.NewReceiver(eng, 1, ackLink)
	rcv.Feedback = fb

	delays := &stats.DurationSeries{}
	bytes := 0
	half := dur / 2
	rcv.OnData = func(now time.Duration, p *netsim.Packet, owd time.Duration) {
		if now >= half {
			delays.AddDuration(owd)
			bytes += p.Size
		}
	}
	if feedMon != nil {
		feedMon(eng)
	}
	fwd := netsim.NewLink(eng, rateBps, rtt/2, queuePkts*1500, rcv)
	snd = cc.NewSender(eng, 1, fwd, ctrl)
	snd.Start()
	eng.RunUntil(dur)
	return float64(bytes) * 8 / half.Seconds() / 1e6, delays.Percentile(95), delays.Min()
}

// TestConvergesOnBottleneck attaches the full hybrid feedback with no
// monitor (plain-GCC regime) and checks it converges with a controlled
// queue, exactly as the GCC conformance bounds require.
func TestConvergesOnBottleneck(t *testing.T) {
	tput, p95, min := runLoop(t, New(), NewFeedback(nil), nil, 20e6, 100, 16*time.Second)
	if tput < 12 || tput > 20.5 {
		t.Fatalf("throughput %.1f Mbit/s on a 20 Mbit/s link", tput)
	}
	if p95 > min+55 {
		t.Fatalf("p95 delay %.1f ms vs min %.1f ms: queue not controlled", p95, min)
	}
}

// monitorFeed installs a synthetic per-subframe control feed: every
// millisecond the monitor sees the mobile granted myPRBs and a
// competitor granted otherPRBs of a 100-PRB cell.
func monitorFeed(mon *core.Monitor, mcs phy.MCS, myPRBs, otherPRBs int) func(*sim.Engine) {
	mon.AttachCell(core.CellInfo{ID: 1, NPRB: 100,
		Rate: func() float64 { return mcs.BitsPerPRB() },
		BER:  func() float64 { return 1e-6 }})
	rep := &ran.SubframeReport{CellID: 1, NPRB: 100}
	rep.Allocs = append(rep.Allocs, ran.Alloc{RNTI: 61, PRBs: myPRBs, MCS: mcs})
	if otherPRBs > 0 {
		rep.Allocs = append(rep.Allocs, ran.Alloc{RNTI: 99, PRBs: otherPRBs, MCS: mcs})
	}
	return func(eng *sim.Engine) {
		eng.Every(time.Millisecond, func() {
			rep.Subframe++
			mon.OnSubframe(rep)
		})
	}
}

// TestWirelessStatePinsToEntitlement: on an overprovisioned path whose
// real constraint is the shared cell, the hybrid must settle at the
// physical-layer entitlement max(C_t, C_f) without building a queue,
// while plain GCC - blind to the cell - probes far past it.
func TestWirelessStatePinsToEntitlement(t *testing.T) {
	mcs := phy.MCS{CQI: 7, Table: phy.Table64QAM, Streams: 1}
	mon := core.NewMonitor(61)
	feed := monitorFeed(mon, mcs, 10, 90)
	hyTput, hyP95, hyMin := runLoop(t, New(), NewFeedback(mon), feed, 50e6, 400, 12*time.Second)

	// The entitled rate of the 2-user cell: C_f = R_w * NPRB/2.
	mon2 := core.NewMonitor(61)
	monitorFeed(mon2, mcs, 10, 90) // attach cell
	rep := &ran.SubframeReport{CellID: 1, NPRB: 100,
		Allocs: []ran.Alloc{{RNTI: 61, PRBs: 10, MCS: mcs}, {RNTI: 99, PRBs: 90, MCS: mcs}}}
	for i := 0; i < 2*core.Window; i++ {
		mon2.OnSubframe(rep)
	}
	ct, cf := mon2.CapacityBits(), mon2.FairShareBits()
	entitled := core.BitsPerSubframeToBps(max(ct, cf)) / 1e6

	if hyTput < 0.4*entitled || hyTput > 1.1*entitled {
		t.Fatalf("hybrid throughput %.1f Mbit/s, want near the %.1f Mbit/s entitlement", hyTput, entitled)
	}
	if hyP95 > hyMin+10 {
		t.Fatalf("hybrid queued %.1f ms above min on an unconstrained path", hyP95-hyMin)
	}

	gcTput, _, _ := runLoop(t, gcc.New(), gcc.NewREMB(), nil, 50e6, 400, 12*time.Second)
	if gcTput < 2*hyTput {
		t.Fatalf("plain GCC (%.1f Mbit/s) should probe far past the entitlement the hybrid holds (%.1f)", gcTput, hyTput)
	}
}

// TestDegradesToGCCOnInternetBottleneck: with the cell overprovisioned
// and a 5 Mbit/s Internet bottleneck on the path, the one-way delay
// exceeds the PBE threshold, the internet-bottleneck bit must be set,
// and the hybrid must perform like plain GCC on the same path instead
// of pushing the (huge, irrelevant) physical-layer capacity into the
// queue.
func TestDegradesToGCCOnInternetBottleneck(t *testing.T) {
	mcs := phy.MCS{CQI: 13, Table: phy.Table64QAM, Streams: 2}
	mon := core.NewMonitor(61)
	feed := monitorFeed(mon, mcs, 50, 0) // sole user, capacity ~ 100 PRBs
	hyTput, hyP95, hyMin := runLoop(t, New(), NewFeedback(mon), feed, 5e6, 60, 12*time.Second)

	gcTput, gcP95, gcMin := runLoop(t, gcc.New(), gcc.NewREMB(), nil, 5e6, 60, 12*time.Second)

	if hyTput < 0.75*gcTput || hyTput > 1.25*gcTput {
		t.Fatalf("hybrid throughput %.2f Mbit/s vs plain GCC %.2f: did not degrade to delay-based behavior", hyTput, gcTput)
	}
	// The queue must stay controlled like GCC's, not pinned full by the
	// physical-layer rate (60 packets at 5 Mbit/s is 144 ms when full).
	if hyQ, gcQ := hyP95-hyMin, gcP95-gcMin; hyQ > gcQ+40 {
		t.Fatalf("hybrid standing queue %.1f ms vs plain GCC %.1f ms", hyQ, gcQ)
	}
}

// TestInternetBitClearsRegionHooks drives the detector deterministically:
// while the one-way delay is benign the region pins at the shared cell's
// entitlement; once the delay exceeds D_th = D_prop + 27 ms for Eqn 6's
// packet horizon, the internet-bottleneck bit must be set and the region
// must escape the physical ceiling (pure delay-based GCC).
func TestInternetBitClearsRegionHooks(t *testing.T) {
	mcs := phy.MCS{CQI: 7, Table: phy.Table64QAM, Streams: 1}
	mon := core.NewMonitor(61)
	mon.AttachCell(core.CellInfo{ID: 1, NPRB: 100,
		Rate: func() float64 { return mcs.BitsPerPRB() },
		BER:  func() float64 { return 1e-6 }})
	rep := &ran.SubframeReport{CellID: 1, NPRB: 100,
		Allocs: []ran.Alloc{{RNTI: 61, PRBs: 10, MCS: mcs}, {RNTI: 99, PRBs: 90, MCS: mcs}}}
	for i := 0; i < 2*core.Window; i++ {
		mon.OnSubframe(rep)
	}
	entitledBps := core.BitsPerSubframeToBps(max(mon.CapacityBits(), mon.FairShareBits()))

	f := NewFeedback(mon)
	interval := 600 * time.Microsecond // 1500 B at 20 Mbit/s
	var rate float64
	var internet bool
	step := func(i int, owd time.Duration) {
		rate, internet = f.Feedback(time.Duration(i)*interval, owd, 1500)
	}
	n1 := int(4 * time.Second / interval)
	for i := 0; i < n1; i++ {
		step(i, 5*time.Millisecond)
	}
	if internet {
		t.Fatal("benign delay set the internet-bottleneck bit")
	}
	if rate > 1.1*entitledBps {
		t.Fatalf("wireless state: rate %.0f above the %.0f entitlement", rate, entitledBps)
	}
	for i := n1; i < 2*n1; i++ {
		step(i, 45*time.Millisecond)
	}
	if !internet {
		t.Fatal("sustained above-threshold delay did not set the internet-bottleneck bit")
	}
	if rate < 1.5*entitledBps {
		t.Fatalf("internet state: rate %.0f still pinned under the stale %.0f ceiling", rate, entitledBps)
	}
}

// TestSoleOccupantKeepsStartupRamp: with one user on the cell the
// hybrid keeps GCC's fast startup toward the measured headroom
// (conservative mode is for shared cells only).
func TestSoleOccupantKeepsStartupRamp(t *testing.T) {
	mon := core.NewMonitor(61)
	mcs := phy.MCS{CQI: 13, Table: phy.Table64QAM, Streams: 2}
	mon.AttachCell(core.CellInfo{ID: 1, NPRB: 100,
		Rate: func() float64 { return mcs.BitsPerPRB() },
		BER:  func() float64 { return 1e-6 }})
	rep := &ran.SubframeReport{CellID: 1, NPRB: 100,
		Allocs: []ran.Alloc{{RNTI: 61, PRBs: 30, MCS: mcs}}}
	for i := 0; i < 2*core.Window; i++ {
		mon.OnSubframe(rep)
	}
	f := NewFeedback(mon)
	interval := 600 * time.Microsecond // 1500 B at 20 Mbit/s
	var rate float64
	for i := 0; i < int(2*time.Second/interval); i++ {
		rate, _ = f.Feedback(time.Duration(i)*interval, 5*time.Millisecond, 1500)
	}
	// Two seconds of sole occupancy must lift the region well above the
	// 1 Mbit/s start rate (startup ramp intact, bounded by 1.5x tput).
	if rate < 10e6 {
		t.Fatalf("sole occupant reached only %.0f bit/s after 2 s", rate)
	}
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
