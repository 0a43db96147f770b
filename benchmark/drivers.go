package main

import (
	"math/rand"
	"runtime"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/bbr"
	"pbecc/internal/cc/copa"
	"pbecc/internal/cc/cubic"
	"pbecc/internal/cc/gcc"
	"pbecc/internal/cc/pbertc"
	"pbecc/internal/cc/pcc"
	"pbecc/internal/cc/sprout"
	"pbecc/internal/cc/verus"
	"pbecc/internal/cc/vivace"
	"pbecc/internal/core"
	"pbecc/internal/fluid"
	"pbecc/internal/harness"
	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/nr"
	"pbecc/internal/pdcch"
	"pbecc/internal/phy"
	"pbecc/internal/rtc"
	"pbecc/internal/sim"
)

// ccSchemes names the cc.<scheme>.ns_per_pkt metrics.
var ccSchemes = harness.Schemes

// drivers times each layer through its exported functions alone, on inputs
// generated here. They are stacked bottom-up (sim, netsim, lte/nr, core,
// cc, rtc), so a driver's ns include the layers beneath it; README.md says
// which. Results do not depend on the workload or the seed.
type drivers struct {
	cfg *config
	tr  *tracer
	out map[string]value

	// Reports recorded from the lte driver's saturated cell, replayed by
	// the core drivers and fed to the pbe/pbertc monitors.
	reports []lte.SubframeReport

	sink float64 // keeps pure results alive
}

func runDrivers(cfg *config, tr *tracer) map[string]value {
	d := &drivers{cfg: cfg, tr: tr, out: map[string]value{}}
	tr.span("drivers", "benchmark", func() int {
		d.simDrivers()
		d.netsimDrivers()
		d.lteDrivers()
		d.nrDrivers()
		d.phyDriver()
		d.coreDrivers()
		d.pdcchDrivers()
		d.ccDrivers()
		d.rtcDrivers()
		d.fluidDrivers()
		return len(d.out)
	})
	return d.out
}

// n scales a driver's length: the test scale runs 1/20 of it.
func (d *drivers) n(full int) int {
	if d.cfg.quick {
		return max(full/20, 1)
	}
	return full
}

func (d *drivers) set(name, unit string, v float64) { d.out[name] = value{Value: v, Unit: unit} }

// timed runs fn, which returns its operation count, inside a span
// driver/<name>, and returns host ns and heap allocations per operation.
func (d *drivers) timed(name, layer string, fn func() int) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ops := 0
	el := d.tr.span("driver/"+name, layer, func() int { ops = fn(); return ops })
	runtime.ReadMemStats(&m1)
	return ratio(float64(el.Nanoseconds()), float64(ops)), ratio(float64(m1.Mallocs-m0.Mallocs), float64(ops))
}

func (d *drivers) simDrivers() {
	// Schedule + execute of no-op events with the heap held 4096 deep.
	ns, _ := d.timed("sim.schedule_run", "sim", func() int {
		eng := sim.New(1)
		total, scheduled := d.n(2_000_000), 0
		var fn func()
		fn = func() {
			if scheduled < total {
				scheduled++
				eng.Schedule(time.Duration(1+scheduled%997)*time.Microsecond, fn)
			}
		}
		for i := 0; i < 4096; i++ {
			fn()
		}
		eng.Run()
		return scheduled
	})
	d.set("sim.schedule_run_ns", "ns", ns)

	// The per-cell ticker pattern: 128 tickers at 1 ms.
	ns, _ = d.timed("sim.ticker", "sim", func() int {
		eng := sim.New(1)
		for i := 0; i < 128; i++ {
			eng.Every(time.Millisecond, func() {})
		}
		ms := d.n(10_000)
		eng.RunUntil(time.Duration(ms) * time.Millisecond)
		return 128 * ms
	})
	d.set("sim.ticker_ns", "ns", ns)

	// Pure barrier cost: windows over 8 shards that have nothing to do.
	for _, c := range []struct {
		width   string
		workers int
	}{{"w1", 1}, {"wN", d.cfg.procs}} {
		ns, _ = d.timed("sim.cluster.window_"+c.width, "sim", func() int {
			cl := sim.NewCluster(1)
			for i := 0; i < 8; i++ {
				cl.AddShard()
			}
			cl.SetWorkers(c.workers)
			cl.DeclareLookahead(time.Millisecond)
			windows := d.n(200_000)
			cl.RunUntil(time.Duration(windows) * time.Millisecond)
			return windows
		})
		d.set("sim.cluster.window_ns_"+c.width, "ns", ns)
	}
}

func (d *drivers) netsimDrivers() {
	// source -> three link hops -> pooled sink, 1 Gbit/s offered.
	const offered = 1e9
	chain := func(firstHopBps float64) (ops int, delivered uint64) {
		eng := sim.New(1)
		sink := &netsim.Sink{Pool: netsim.PoolOf(eng)}
		hop3 := netsim.NewLink(eng, 2*offered, time.Millisecond, 1<<20, sink)
		hop2 := netsim.NewLink(eng, 2*offered, time.Millisecond, 1<<20, hop3)
		hop1 := netsim.NewLink(eng, firstHopBps, time.Millisecond, 64*netsim.MSS, hop2)
		netsim.NewCrossTraffic(eng, hop1, offered, 1).Start()
		dur := time.Duration(d.n(2000)) * time.Millisecond
		eng.RunUntil(dur)
		return int(dur.Seconds() * offered / (netsim.MSS * 8)), sink.Count
	}
	ns, allocs := d.timed("netsim.link", "netsim", func() int { ops, _ := chain(2 * offered); return ops })
	d.set("netsim.link_ns_per_pkt", "ns", ns)
	d.set("netsim.link_allocs_per_pkt", "count", allocs)
	// First hop overloaded 2x: half the packets take the drop-tail path.
	ns, _ = d.timed("netsim.drop", "netsim", func() int { ops, _ := chain(offered / 2); return ops })
	d.set("netsim.drop_ns_per_pkt", "ns", ns)
}

func (d *drivers) lteDrivers() {
	cellRun := func(users, ms int) int {
		eng := sim.New(1)
		cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
		for u := 0; u < users; u++ {
			ue := lte.NewUE(eng, u+1, uint16(61+u))
			ue.AddCell(cell, phy.NewStaticChannel(-80-float64(u%13), cell.Table, nil))
			ue.SetDefaultHandler(&netsim.Sink{Pool: netsim.PoolOf(eng)})
			ue.Start()
			netsim.NewCrossTraffic(eng, ue, 8e6, u+1).Start() // 16 x 8 Mbit/s saturates the carrier
		}
		if users > 0 {
			// Record every report into storage sized up front, so
			// recording does not show in the allocation count.
			d.reports = make([]lte.SubframeReport, 0, ms)
			grants := make([]lte.Alloc, 0, ms*(users+1))
			cell.AttachMonitor(func(rep *lte.SubframeReport) {
				from := len(grants)
				grants = append(grants, rep.Allocs...)
				cp := *rep
				cp.Allocs = grants[from:len(grants):len(grants)]
				d.reports = append(d.reports, cp)
			})
		}
		eng.RunUntil(time.Duration(ms) * time.Millisecond)
		return cell.Subframe()
	}
	// One 100-PRB cell at metro density: 16 saturated UEs.
	ns, allocs := d.timed("lte.subframe", "lte", func() int { return cellRun(16, d.n(5000)) })
	d.set("lte.subframe_ns", "ns", ns)
	d.set("lte.subframe_allocs", "count", allocs)
	used, offered := 0, 0
	for i := range d.reports {
		used += d.reports[i].AllocatedPRBs()
		offered += d.reports[i].NPRB
	}
	d.set("lte.prb_utilisation", "ratio", ratio(float64(used), float64(offered)))
	// The same cell with no backlog: most metro cells tick like this.
	ns, _ = d.timed("lte.idle_subframe", "lte", func() int { return cellRun(0, d.n(200_000)) })
	d.set("lte.idle_subframe_ns", "ns", ns)
}

func (d *drivers) nrDrivers() {
	cellRun := func(mu, users int, rssi, perUserBps float64, dur time.Duration) int {
		eng := sim.New(1)
		cell := nr.NewCell(eng, nr.Config{ID: 1, Mu: mu, BandwidthMHz: 100})
		for u := 0; u < users; u++ {
			ue := nr.NewUE(eng, u+1, uint16(61+u))
			ue.AddCell(cell, phy.NewStaticChannel(rssi, cell.Table, nil))
			ue.SetDefaultHandler(&netsim.Sink{Pool: netsim.PoolOf(eng)})
			netsim.NewCrossTraffic(eng, ue, perUserBps, u+1).Start()
		}
		eng.RunUntil(dur)
		return cell.Slot()
	}
	dur := time.Duration(d.n(3000)) * time.Millisecond
	ns, allocs := d.timed("nr.slot", "nr", func() int { return cellRun(1, 16, -85, 60e6, dur) })
	d.set("nr.slot_ns", "ns", ns)
	d.set("nr.slot_allocs", "count", allocs)
	// The shape of BenchmarkNRSlotScheduling: mmWave numerology, 8000 slots/s.
	ns, _ = d.timed("nr.slot_mu3", "nr", func() int { return cellRun(3, 4, -85, 400e6, time.Duration(d.n(1000))*time.Millisecond) })
	d.set("nr.slot_ns_mu3", "ns", ns)
	ns, _ = d.timed("nr.idle_slot", "nr", func() int { return cellRun(1, 0, -85, 0, 40*dur) })
	d.set("nr.idle_slot_ns", "ns", ns)
}

func (d *drivers) phyDriver() {
	ns, _ := d.timed("phy.tb_error_rate", "phy", func() int {
		ops := 0
		for rep := 0; rep < d.n(100); rep++ {
			for cqi := 1; cqi <= 15; cqi++ {
				ber := phy.BERFromRSSI(-75 - 2*float64(cqi))
				perPRB := phy.MCS{CQI: cqi, Table: phy.Table64QAM, Streams: 2}.BitsPerPRB()
				for prb := 1; prb <= 100; prb++ {
					bits := perPRB * float64(prb)
					d.sink += phy.TBErrorRate(ber, int(bits)) + phy.TransportFromPhysical(bits, ber)
					ops++
				}
			}
		}
		return ops
	})
	d.set("phy.tb_error_rate_ns", "ns", ns)
}

// monitorOn returns a monitor for the recorded cell's first user.
func (d *drivers) monitorOn() *core.Monitor {
	mon := core.NewMonitor(61)
	rate := phy.MCS{CQI: 10, Table: phy.Table64QAM, Streams: 2}.BitsPerPRB()
	mon.AttachCell(core.CellInfo{ID: 1, NPRB: 100,
		Rate: func() float64 { return rate }, BER: func() float64 { return 1e-6 }})
	return mon
}

func (d *drivers) coreDrivers() {
	mon := d.monitorOn()
	ns, _ := d.timed("core.monitor_ingest", "core", func() int {
		ops := 0
		for round := 0; round < 20; round++ {
			for i := range d.reports {
				mon.OnSubframe(&d.reports[i])
				ops++
			}
		}
		return ops
	})
	d.set("core.monitor_ingest_ns", "ns", ns)
	ns, _ = d.timed("core.monitor_query", "core", func() int {
		ops := d.n(100_000)
		for i := 0; i < ops; i++ {
			d.sink += mon.CapacityBits() + mon.FairShareBits()
		}
		return ops
	})
	d.set("core.monitor_query_ns", "ns", ns)
	client := core.NewClient(mon)
	ns, _ = d.timed("core.client_feedback", "core", func() int {
		ops := d.n(100_000)
		for i := 0; i < ops; i++ {
			rate, _ := client.Feedback(time.Duration(i)*100*time.Microsecond, 25*time.Millisecond, netsim.MSS)
			d.sink += rate
		}
		return ops
	})
	d.set("core.client_feedback_ns", "ns", ns)
}

func (d *drivers) pdcchDrivers() {
	// 20 MHz control regions carrying 8 DCIs each.
	subframes := d.n(40)
	reps := make([]lte.SubframeReport, subframes)
	for sf := range reps {
		reps[sf] = lte.SubframeReport{CellID: 1, Subframe: sf, NPRB: 100}
		for i := 0; i < 8; i++ {
			mcs := phy.MCS{CQI: 5 + (sf+i)%10, Table: phy.Table64QAM, Streams: 1 + i%2}
			reps[sf].Allocs = append(reps[sf].Allocs, lte.Alloc{RNTI: uint16(100 + 8*sf + i),
				FirstRBG: 3 * i, NumRBGs: 3, PRBs: 12, MCS: mcs, TBBits: int(12 * mcs.BitsPerPRB()), NDI: true})
		}
	}
	regions := make([]*pdcch.Region, subframes)
	ns, _ := d.timed("pdcch.encode", "pdcch", func() int {
		for sf := range reps {
			regions[sf] = lte.EncodeReport(&reps[sf], 3)
		}
		return subframes
	})
	d.set("pdcch.encode_ns_per_subframe", "ns", ns)
	const sigma = 0.2
	rng := rand.New(rand.NewSource(1))
	dec := pdcch.NewDecoder(sigma)
	placed, recovered := 0, 0
	ns, _ = d.timed("pdcch.decode", "pdcch", func() int {
		for sf, region := range regions {
			if region == nil {
				continue // control region overflow: nothing was placed
			}
			want := map[uint16]uint8{}
			for _, a := range reps[sf].Allocs {
				want[a.RNTI] = uint8(a.MCS.CQI)
			}
			placed += len(want)
			region.AddNoise(sigma, rng)
			for _, m := range dec.Decode(region) {
				if cqi, ok := want[m.DCI.RNTI]; ok && cqi == m.DCI.MCS {
					recovered++
					delete(want, m.DCI.RNTI)
				}
			}
		}
		return subframes
	})
	d.set("pdcch.decode_ns_per_subframe", "ns", ns)
	d.set("pdcch.decode_success_ratio", "ratio", ratio(float64(recovered), float64(placed)))
}

func newController(scheme string) cc.Controller {
	switch scheme {
	case "pbe":
		return core.NewSender()
	case "bbr":
		return bbr.New()
	case "cubic":
		return cubic.New()
	case "verus":
		return verus.New()
	case "sprout":
		return sprout.New()
	case "copa":
		return copa.New()
	case "pcc":
		return pcc.New()
	case "vivace":
		return vivace.New()
	case "gcc":
		return gcc.New()
	case "pbertc":
		return pbertc.New()
	}
	panic("benchmark: no controller for scheme " + scheme)
}

// dumbbell is cctest.Run's single bottleneck (50 Mbit/s, 40 ms RTT) with the
// receiver feedback cctest has no hook for: gcc gets its REMB estimator, pbe
// and pbertc a monitor fed one recorded lte report per millisecond. It
// returns the data packets delivered.
func (d *drivers) dumbbell(seed int64, scheme string, dur time.Duration) int {
	const rate, rtt = 50e6, 40 * time.Millisecond
	eng := sim.New(seed)
	var snd *cc.Sender
	ack := netsim.NewLink(eng, 0, rtt/2, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		snd.HandlePacket(now, p)
	}))
	rcv := cc.NewReceiver(eng, 1, ack)
	switch scheme {
	case "gcc":
		rcv.Feedback = gcc.NewREMB()
	case "pbe", "pbertc":
		mon, next := d.monitorOn(), 0
		eng.Every(time.Millisecond, func() {
			mon.OnSubframe(&d.reports[next%len(d.reports)])
			next++
		})
		if scheme == "pbe" {
			rcv.Feedback = core.NewClient(mon)
		} else {
			rcv.Feedback = pbertc.NewFeedback(mon)
		}
	}
	fwd := netsim.NewLink(eng, rate, rtt/2, cc.BDPBytes(rate, rtt), rcv)
	snd = cc.NewSender(eng, 1, fwd, newController(scheme))
	snd.Start()
	eng.RunUntil(dur)
	return int(rcv.Received)
}

func (d *drivers) ccDrivers() {
	dur := time.Duration(d.n(2000)) * time.Millisecond
	for _, scheme := range ccSchemes {
		ns, allocs := d.timed("cc."+scheme, "cc", func() int {
			pkts := 0
			for seed := int64(1); seed <= 20; seed++ {
				pkts += d.dumbbell(seed, scheme, dur)
			}
			return pkts
		})
		d.set("cc."+scheme+".ns_per_pkt", "ns", ns)
		if scheme == "bbr" {
			d.set("cc.allocs_per_pkt", "count", allocs)
		}
	}
}

func (d *drivers) rtcDrivers() {
	const rate, hop = 20e6, 10 * time.Millisecond
	// receiver wires one media leg's receiving half: jitter buffer, REMB
	// feedback, and the ACK path back to whatever *send points at.
	receiver := func(eng *sim.Engine, id int, spec rtc.MediaSpec, send **rtc.Sender) (*rtc.Receiver, *netsim.Link) {
		ack := netsim.NewLink(eng, 0, hop, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			(*send).HandlePacket(now, p)
		}))
		rcv := rtc.NewReceiver(eng, id, ack, spec)
		rcv.Transport().Feedback = gcc.NewREMB()
		return rcv, netsim.NewLink(eng, rate, hop, 128*netsim.MSS, rcv)
	}

	// One call: encoder -> pacer -> link -> jitter buffer.
	ns, _ := d.timed("rtc.call", "rtc", func() int {
		eng := sim.New(1)
		var snd *rtc.Sender
		rcv, fwd := receiver(eng, 1, rtc.MediaSpec{}, &snd)
		snd = rtc.NewSender(eng, 1, fwd, gcc.New(), rtc.MediaSpec{})
		enc := rtc.NewEncoder(eng, rtc.MediaSpec{}, snd.QueueFrame)
		enc.Available = snd.AvailableRate
		snd.Start()
		enc.Start()
		eng.RunUntil(time.Duration(d.n(60)) * time.Second)
		return int(rcv.Stats().Released)
	})
	d.set("rtc.call_ns_per_frame", "ns", ns)

	// SFU fan-out: one simulcast source, 32 subscriber legs.
	ns, _ = d.timed("rtc.sfu", "rtc", func() int {
		eng := sim.New(1)
		sfu := rtc.NewSFU(eng, rtc.MediaSpec{Simulcast: true})
		var rcvs []*rtc.Receiver
		for i := 1; i <= 32; i++ {
			var snd *rtc.Sender
			rcv, out := receiver(eng, i, sfu.LegSpec(), &snd)
			snd = sfu.AddSubscriber(i, out, gcc.New()).Send
			rcvs = append(rcvs, rcv)
		}
		enc := rtc.NewEncoder(eng, sfu.Spec(), sfu.OnFrame)
		sfu.Start()
		enc.Start()
		eng.RunUntil(time.Duration(d.n(10_000)) * time.Millisecond)
		frames := 0
		for _, rcv := range rcvs {
			frames += int(rcv.Stats().Released)
		}
		return frames
	})
	d.set("rtc.sfu_ns_per_frame_leg", "ns", ns)
}

func (d *drivers) fluidDrivers() {
	cells := d.n(65536)
	var m *fluid.Modeled
	ns, _ := d.timed("fluid.draw", "fluid", func() int {
		m = fluid.DrawModeled(cells, 16, rand.New(rand.NewSource(1)), fluid.DefaultWindow)
		return cells * 16
	})
	d.set("fluid.draw_ns_per_session", "ns", ns)
	ns, _ = d.timed("fluid.advance", "fluid", func() int {
		chunks := m.Chunks(d.cfg.procs)
		const windows = 25
		for w := 1; w <= windows; w++ {
			for _, ch := range chunks {
				ch.Advance(time.Duration(w) * fluid.DefaultWindow)
			}
		}
		return cells * windows
	})
	d.set("fluid.advance_ns_per_cell_window", "ns", ns)
}
