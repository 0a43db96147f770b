// Package harness assembles end-to-end experiments: content servers
// running a congestion-control scheme, an optional Internet bottleneck,
// cellular cells with background control traffic, UEs with carrier
// aggregation, and per-flow statistics over 100 ms windows - the role
// Pantheon plays in the paper's methodology (§6.1).
package harness

import (
	"fmt"
	"slices"
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
	"pbecc/internal/faults"
	"pbecc/internal/fluid"
	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/nr"
	"pbecc/internal/obs"
	"pbecc/internal/pdcch"
	"pbecc/internal/phy"
	"pbecc/internal/ran"
	"pbecc/internal/rtc"
	"pbecc/internal/sim"
	"pbecc/internal/stats"
)

// Schemes lists every congestion-control algorithm under test: the
// paper's order (§6.1) plus the GCC/REMB real-time baseline added with
// the rtc subsystem and the pbertc physical-layer/GCC hybrid.
var Schemes = []string{"pbe", "bbr", "cubic", "verus", "sprout", "copa", "pcc", "vivace", "gcc", "pbertc"}

// SchemeUsesMonitor reports whether a scheme consumes the PBE monitor's
// physical-layer capacity feed. Only these schemes react to the
// measurement-noise and monitor-fault axes; for the rest, faulted jobs
// would duplicate the clean run exactly.
func SchemeUsesMonitor(scheme string) bool { return scheme == "pbe" || scheme == "pbertc" }

// CellSpec describes one LTE component carrier.
type CellSpec struct {
	ID      int
	NPRB    int
	Table   phy.CQITable
	Control ran.ControlSource // nil = no control-plane chatter
}

// NRCellSpec describes one 5G NR carrier. Cell IDs share a namespace with
// the LTE cells (the monitor tracks both RATs in one table), so NR cells
// conventionally number from 101.
type NRCellSpec struct {
	ID           int
	Mu           int // numerology µ: 0..3
	NPRB         int // 0 = derive from BandwidthMHz
	BandwidthMHz int
	Table        phy.CQITable      // 0 = 256-QAM
	Control      ran.ControlSource // nil = no control-plane chatter
}

// UESpec describes one mobile device. A UE with only CellIDs is an LTE
// device, one with only NRCellIDs is a standalone 5G device, and one with
// both is an EN-DC dual-connectivity device whose first NR cell is the
// secondary cell group behind the LTE anchor.
type UESpec struct {
	ID          int
	RNTI        uint16
	CellIDs     []int // LTE carriers, primary first
	RSSI        float64
	Trajectory  phy.Trajectory // overrides RSSI when non-nil
	FadingSigma float64
	CA          bool // LTE carrier aggregation enabled

	NRCellIDs    []int          // NR carriers
	NRRSSI       float64        // 0 = use RSSI
	NRTrajectory phy.Trajectory // overrides NRRSSI when non-nil
}

// FlowSpec describes one end-to-end flow from a content server to a UE.
type FlowSpec struct {
	ID     int
	UE     int
	Scheme string // one of Schemes, or "fixed" with FixedRate set
	Start  time.Duration
	Stop   time.Duration // 0 = run to scenario end

	RTTBase time.Duration // server<->tower round-trip propagation

	// Optional Internet bottleneck on the data path.
	InternetRate  float64
	InternetQueue int

	// FixedRate drives a constant-rate source instead of a controller.
	FixedRate float64

	// OnPeriod/OffPeriod, when set with Scheme "fixed", gate the source
	// on and off (the §6.3.3 controlled competitor).
	OnPeriod  time.Duration
	OffPeriod time.Duration

	// Media, when non-nil, replaces the full-buffer sender with the
	// frame-level RTC pipeline (encoder -> packetizer/pacer -> jitter
	// buffer); Scheme still chooses the congestion controller. Ignored
	// for "fixed" flows and SFU legs.
	Media *rtc.MediaSpec

	// SFULeg makes this flow one subscriber leg of the scenario's SFU
	// fan-out: the relay forwards the selected simulcast layer to the
	// UE, paced by the leg's own congestion controller. In sharded runs
	// the leg's two wired hops are cross-shard links between the wired
	// core and the UE's cell shard. Requires Scenario.SFU.
	SFULeg bool
}

// Scenario is a complete experiment.
type Scenario struct {
	Name     string
	Seed     int64
	Duration time.Duration
	Cells    []CellSpec
	NRCells  []NRCellSpec
	UEs      []UESpec
	Flows    []FlowSpec

	// PRBSampleEvery, when positive, samples each UE's primary-cell PRB
	// allocation (averaged over the interval) for the fairness figures.
	PRBSampleEvery time.Duration

	// MonitorDecodesPDCCH routes monitor input through the bit-level
	// PDCCH encode/blind-decode path instead of scheduler structs (the
	// decode-versus-oracle ablation). Slower; used by dedicated benches.
	MonitorDecodesPDCCH bool

	// DisableUserFilter turns off PBE-CC's control-traffic filter
	// (ablation of §4.2.1).
	DisableUserFilter bool

	// MisreportGuard configures the §7 server-side feedback validator.
	MisreportGuard float64

	// CapacityNoise, when positive, applies zero-mean Gaussian
	// multiplicative noise with this standard deviation (as a fraction of
	// the estimate) to the PBE monitor's capacity feedback - the sweep
	// runner's measurement-robustness axis, after Zhu et al.'s methodology
	// for stress-testing measurement-based congestion control.
	CapacityNoise float64

	// SFU, when non-nil, stands up an SFU fan-out: one simulcast ingest
	// stream enters a frame-level relay over a wired path, and every
	// flow marked SFULeg becomes a subscriber leg from the relay through
	// the cellular network to its UE.
	SFU *SFUSpec

	// Sharded partitions the scenario across shard-local event engines:
	// one shard per group of cells entangled by multi-carrier devices,
	// plus a wired-core shard for the SFU relay. The shard topology is a
	// pure function of the scenario, so results are byte-identical for
	// any Shards value; unsharded scenarios run on the degenerate
	// one-shard cluster, bit-compatible with the pre-sharding engine.
	Sharded bool

	// Shards bounds how many shards advance concurrently inside each
	// synchronization window (0 or 1 = serial). Wall-clock only - never
	// results.
	Shards int

	// StreamStats records per-flow delay percentiles through
	// constant-size P² digests instead of exact per-packet sample
	// series, keeping memory O(flows) at metro scale.
	StreamStats bool

	// Trace records a virtual-time execution trace of the run: shard
	// window spans, per-flow congestion-control decision tracks, and
	// PBE estimation-error tracks, merged deterministically at window
	// barriers and exported through Result.Trace as Chrome trace-event
	// JSON. Tracing changes what is observed, never what happens.
	Trace bool

	// Series records the run's downsampled virtual-time series (40 ms
	// windows): ground-truth versus estimated capacity, every cc flow's
	// rate/cwnd/acked-volume trajectory, bottleneck queue depth, frame
	// delay and freeze onsets, and fault-injection markers - exported
	// through Result.Series. Like Trace, recording changes what is
	// observed, never what happens: the sweep runner keeps it on for
	// every job, and rows are byte-identical either way.
	Series bool

	// Faults selects the structured measurement-fault axes injected
	// between the cells and each monitor-using flow's PBE monitor (see
	// internal/faults). The zero value is the clean channel; the OnOff
	// axis is assembled at scenario-build time (Params.apply), not here.
	Faults faults.Spec

	// Fluid, when non-nil, stands up the fluid background tier: per-cell
	// aggregate rate-envelope sessions competing in the schedulers'
	// water-fill (visible to PBE monitors through the control channel),
	// plus an optional modeled-only nation-scale population. Nil keeps
	// every cell byte-identical to the pre-fluid scheduler.
	Fluid *FluidSpec
}

// SFUSpec configures the fan-out relay and its ingest leg.
type SFUSpec struct {
	// Media describes the ingest stream; Simulcast is forced on (an SFU
	// needs every ladder rung to select from).
	Media rtc.MediaSpec

	// IngestScheme is the ingest leg's congestion controller. The
	// default "provisioned" paces at twice the simulcast bundle rate
	// without adapting - a production SFU's dedicated uplink - so the
	// scenario's congestion dynamics live on the subscriber legs. Any
	// scheme name (e.g. "gcc") puts a real controller on the ingest.
	IngestScheme string

	// Ingest path shape: server -> SFU over a wired link.
	IngestRTT   time.Duration // round-trip propagation (default 20 ms)
	IngestRate  float64       // bottleneck rate (0 = unconstrained)
	IngestQueue int           // drop-tail queue bytes (0 = unbounded)
}

// NominalCapacityMbps returns the scenario's aggregate peak physical
// capacity: every cell at its top CQI with two spatial streams. It is the
// denominator of the sweep runner's utilization metric.
func (sc *Scenario) NominalCapacityMbps() float64 {
	var bps float64
	for _, cs := range sc.Cells {
		table := cs.Table
		if table == 0 {
			table = phy.Table64QAM
		}
		peak := phy.MCS{CQI: 15, Table: table, Streams: 2}
		bps += peak.BitsPerPRB() * float64(cs.NPRB) * 1000
	}
	for _, ns := range sc.NRCells {
		table := ns.Table
		if table == 0 {
			table = phy.Table256QAM
		}
		nprb := ns.NPRB
		if nprb == 0 {
			nprb = phy.NRCarrierPRBs(ns.Mu, ns.BandwidthMHz)
		}
		peak := phy.MCS{CQI: 15, Table: table, Streams: 2}
		bps += phy.NRCellRateBps(peak, ns.Mu, nprb)
	}
	return bps / 1e6
}

// FlowResult is one flow's measured performance.
type FlowResult struct {
	ID     int
	Scheme string

	Tput *stats.Series // Mbit/s per 100 ms window

	// Delay holds one-way delay per packet in ms: an exact
	// DurationSeries normally, a streaming P² digest when the scenario
	// sets StreamStats.
	Delay stats.DelayDist

	AvgTputMbps float64
	Received    uint64
	Lost        uint64

	// PBE-only statistics.
	InternetFrac float64

	// PBEErrPct is the mean absolute relative error of the capacity
	// estimate the transport acted on versus a noise-free oracle monitor,
	// in percent (PBE flows only; see pbeProbe).
	PBEErrPct float64

	// Timeline series sampled every 100 ms (rate in Mbit/s, delay ms).
	TimelineT []time.Duration
	TimelineR []float64
	TimelineD []float64

	// Frames holds frame-level QoE metrics for media flows (nil for
	// bulk flows).
	Frames *rtc.FrameStats

	snd     *cc.Sender
	msnd    *rtc.Sender
	windows *stats.Windowed
	start   time.Duration
	stop    time.Duration
	pbe     *core.Client
}

// Result is a completed scenario. A result from Arena.Run is valid until it
// is handed back with Arena.Reclaim: its delay samples, series and engines
// then belong to the arena's next run, so read everything needed first.
type Result struct {
	Scenario *Scenario
	Flows    []*FlowResult

	// CATriggered reports whether any UE activated a secondary carrier
	// (an LTE secondary cell or an EN-DC NR secondary cell group).
	CATriggered bool

	// NRActivated reports whether any EN-DC UE activated its NR leg.
	NRActivated bool

	// PRBSamples[ueIndex] holds the sampled primary-cell PRB shares.
	PRBTimes   []time.Duration
	PRBSamples map[int][]float64

	// Trace is the run's merged virtual-time trace when Scenario.Trace
	// was set (nil otherwise); export with Trace.WriteChromeTrace.
	Trace *obs.Recorder

	// Series is the run's merged virtual-time series when Scenario.Series
	// was set (nil otherwise); export with Series.WriteCSV or feed it to
	// the sweep trajectory analytics.
	Series *obs.SeriesRecorder

	// Fluid aggregates the fluid background tier's offered/served load
	// when Scenario.Fluid was set (nil otherwise).
	Fluid *fluid.Stats

	cluster *sim.Cluster // what Arena.Reclaim recycles
}

// Run executes the scenario and collects per-flow statistics. It runs on a
// throwaway arena: the path is the one Arena.Run takes, and the result is
// never handed back.
func Run(sc *Scenario) *Result { return NewArena().Run(sc) }

func run(sc *Scenario, a *Arena) *Result {
	pl := newPlacement(sc, a)
	res := &Result{Scenario: sc, PRBSamples: map[int][]float64{}, cluster: pl.cluster}

	// LTE and NR cells share one ID namespace (the monitor tracks both
	// RATs in one table) and, past construction, one type.
	cells := map[int]*ran.Cell{}
	for _, cs := range sc.Cells {
		table := cs.Table
		if table == 0 {
			table = phy.Table64QAM
		}
		cells[cs.ID] = lte.NewCell(pl.cell(cs.ID).Engine, cs.ID, cs.NPRB, table, cs.Control)
	}

	for _, ns := range sc.NRCells {
		cells[ns.ID] = nr.NewCell(pl.cell(ns.ID).Engine, nr.Config{
			ID: ns.ID, Mu: ns.Mu, NPRB: ns.NPRB, BandwidthMHz: ns.BandwidthMHz,
			Table: ns.Table, Control: ns.Control,
		})
	}

	var flRT *fluidRuntime
	if sc.Fluid != nil {
		flRT = setupFluid(sc, pl, cells)
	}

	anchors := map[int]*ran.UE{}          // LTE legs: LTE-only devices and EN-DC anchors
	endcs := map[int]*nr.ENDC{}           // dual-connectivity devices
	devices := map[int]device{}           // every device, by UE ID
	channels := map[[2]int]*phy.Channel{} // (ueID, cellID) -> channel
	for _, us := range sc.UEs {
		us := us
		ueEng := pl.ueShard(&us).Engine
		mkChannel := func(rssi float64, traj phy.Trajectory, table phy.CQITable) *phy.Channel {
			var fading *phy.Fading
			if us.FadingSigma > 0 {
				fading = phy.NewFading(us.FadingSigma, 50*time.Millisecond, ueEng.Rand())
			}
			if traj != nil {
				return phy.NewMobileChannel(traj, table, fading)
			}
			return phy.NewStaticChannel(rssi, table, fading)
		}
		addCells := func(ue *ran.UE, ids []int, rssi float64, traj phy.Trajectory) {
			for _, cid := range ids {
				cell := cells[cid]
				ch := mkChannel(rssi, traj, cell.Table)
				channels[[2]int{us.ID, cid}] = ch
				ue.AddCell(cell, ch)
			}
		}
		var anchor *ran.UE
		if len(us.CellIDs) > 0 {
			anchor = lte.NewUE(ueEng, us.ID, us.RNTI)
			addCells(anchor, us.CellIDs, us.RSSI, us.Trajectory)
			anchor.SetCarrierAggregation(us.CA)
			anchors[us.ID] = anchor
		}
		nrRSSI := us.NRRSSI
		if nrRSSI == 0 {
			nrRSSI = us.RSSI
		}
		switch {
		case anchor != nil && len(us.NRCellIDs) > 0:
			// EN-DC: LTE anchor plus one NR secondary cell group.
			if len(us.NRCellIDs) > 1 {
				panic("harness: EN-DC supports one NR secondary cell")
			}
			cell := cells[us.NRCellIDs[0]]
			ch := mkChannel(nrRSSI, us.NRTrajectory, cell.Table)
			channels[[2]int{us.ID, us.NRCellIDs[0]}] = ch
			endc := nr.NewENDC(ueEng, us.ID, us.RNTI, anchor, cell, ch)
			endc.Start()
			endcs[us.ID] = endc
			devices[us.ID] = endc
		case anchor != nil:
			anchor.Start()
			devices[us.ID] = anchor
		case len(us.NRCellIDs) > 0:
			// Standalone 5G device.
			ue := nr.NewUE(ueEng, us.ID, us.RNTI)
			addCells(ue, us.NRCellIDs, nrRSSI, us.NRTrajectory)
			devices[us.ID] = ue
		default:
			panic(fmt.Sprintf("harness: UE %d has no cells", us.ID))
		}
	}

	// UE specs by ID, looked up once per flow below (a linear scan per
	// flow would be O(flows x UEs) at metro scale).
	specs := make(map[int]*UESpec, len(sc.UEs))
	for i := range sc.UEs {
		specs[sc.UEs[i].ID] = &sc.UEs[i]
	}
	spec := func(ueID int) *UESpec {
		us, ok := specs[ueID]
		if !ok {
			panic(fmt.Sprintf("harness: unknown UE %d", ueID))
		}
		return us
	}

	// PBE monitors: one per UE hosting at least one PBE flow, fed by every
	// configured cell but tracking only the active set. Each monitor gets
	// a measurement-accuracy probe whose oracle mirrors every attach and
	// detach but takes the direct (noise-free, decode-free) feed.
	monitors := map[int]*core.Monitor{}
	probes := map[int]*pbeProbe{}
	clientGroups := map[int]*clientGroup{}
	for _, fs := range sc.Flows {
		if !SchemeUsesMonitor(fs.Scheme) {
			continue
		}
		us := spec(fs.UE)
		if _, ok := monitors[fs.UE]; ok {
			continue
		}
		mon := core.NewMonitor(us.RNTI)
		mon.UseFilter = !sc.DisableUserFilter
		if sigma := sc.CapacityNoise; sigma > 0 {
			// The monitor runs on the UE's shard; its noise stream draws
			// from that shard's engine.
			rng := pl.ueShard(us).Rand()
			mon.Noise = func(v float64) float64 {
				return v * (1 + sigma*rng.NormFloat64())
			}
		}
		probe := newPBEProbe(mon, us.RNTI)
		monitors[fs.UE] = mon
		probes[fs.UE] = probe
		clientGroups[fs.UE] = &clientGroup{}

		// Monitor-fault axes interpose an injector on every attach,
		// detach and control feed. The probe's oracle stays on the
		// direct path: it is the fault-free reference PBEErrPct is
		// measured against. With no axes active the injector is never
		// constructed and the clean path is byte-identical to before.
		var transport cellSet = mon
		wrap := func(m ran.Monitor) ran.Monitor { return m }
		if sc.Faults.MonitorAxes() {
			inj := faults.New(pl.ueShard(us).Engine, mon, sc.Faults, sc.Seed, us.RNTI)
			transport, wrap = inj, inj.WrapFeed
		}
		mirrorActiveCells(devices[fs.UE], us.ID, channels, probe.oracle, transport)

		ids := us.cellIDs()
		for i, cid := range ids {
			// The bit-level PDCCH encode/decode path models the LTE
			// control channel only; NR control information always feeds
			// the monitor directly.
			decode := sc.MonitorDecodesPDCCH && i < len(us.CellIDs)
			cells[cid].AttachMonitor(wrap(monitorFeed(decode, cells[cid], mon)))
			cells[cid].AttachMonitor(probe.oracle.OnSubframe)
		}
		// The accuracy sampler runs once per primary-cell slot, attached
		// after both feeds so it observes fully ingested windows.
		cells[ids[0]].AttachMonitor(probe.sampler(pl.ueShard(us).Engine, us.ID))
	}

	// Truth-only capacity oracle for the measured flow when its scheme
	// never reads the monitor: series analytics need the ground-truth
	// trajectory for every scheme, not just the monitor-consuming ones.
	if sc.Series && len(sc.Flows) > 0 {
		fs := sc.Flows[0]
		if fs.Scheme != "fixed" && !SchemeUsesMonitor(fs.Scheme) {
			us := spec(fs.UE)
			attachTruthOracle(sc, pl.ueShard(us).Engine, us, devices[fs.UE], cells, channels)
		}
	}

	// Flows.
	end := sc.Duration
	var sfu *rtc.SFU
	if sc.SFU != nil {
		sfu = buildSFUIngest(pl.core.Engine, sc)
	}
	for i := range sc.Flows {
		fs := &sc.Flows[i]
		stop := fs.Stop
		if stop == 0 {
			stop = end
		}
		var delay stats.DelayDist
		if sc.StreamStats {
			delay = stats.NewDurationP2()
		} else {
			delay = a.delaySeries()
		}
		fr := &FlowResult{ID: fs.ID, Scheme: fs.Scheme,
			Tput: &stats.Series{}, Delay: delay}
		res.Flows = append(res.Flows, fr)
		if fs.SFULeg && sc.SFU == nil {
			panic(fmt.Sprintf("harness: flow %d is marked SFULeg but the scenario has no SFU", fs.ID))
		}
		dev := devices[fs.UE]
		ueSh := pl.ueShard(spec(fs.UE))
		ueEng := ueSh.Engine

		if fs.Scheme == "fixed" {
			ct := netsim.NewCrossTraffic(ueEng, dev, fs.FixedRate, fs.ID)
			// The OnOff fault competitor's on-transitions are injection
			// events for the recovery analytics; the competition family's
			// deliberate competitor is workload, not a fault.
			mark := sc.Faults.OnOff > 0 && fs.OnPeriod == faults.OnOffHalfPeriod &&
				fs.OffPeriod == faults.OnOffHalfPeriod
			scheduleOnOff(ueEng, ct, fs, stop, mark)
			continue
		}

		ctrl := newController(fs.Scheme)
		if p, ok := ctrl.(*core.Sender); ok && sc.MisreportGuard > 0 {
			p.MisreportGuard = sc.MisreportGuard
		}
		fb := flowFeedback(fs, fr, monitors, clientGroups)

		windows := stats.NewWindowed(100 * time.Millisecond)
		start := fs.Start
		fr.windows = windows
		fr.start, fr.stop = start, stop
		onData := func(now time.Duration, p *netsim.Packet, owd time.Duration) {
			if now < start || now > stop || p.Padding {
				return
			}
			windows.Add(now, p.Size)
			fr.Delay.AddDuration(owd)
		}

		switch {
		case sfu != nil && fs.SFULeg:
			attachSubscriber(ueSh, pl.core, sfu, fs, fr, dev, ctrl, fb, onData, end)
		case fs.Media != nil:
			attachMediaFlow(ueEng, fs, fr, dev, ctrl, fb, onData, end)
		default:
			var snd *cc.Sender
			ackLink := netsim.NewLink(ueEng, 0, fs.RTTBase/2, 0,
				netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
					snd.HandlePacket(now, p)
				}))
			rcv := cc.NewReceiver(ueEng, fs.ID, ackLink)
			rcv.Feedback = fb
			rcv.OnData = onData
			dev.RegisterFlow(fs.ID, rcv)

			// Data path: sender -> (internet bottleneck) -> tower -> UE.
			// The content server is pinned to its UE's cell shard, so the
			// whole loop is shard-local.
			bottleneck := netsim.NewLink(ueEng, fs.InternetRate, fs.RTTBase/2, fs.InternetQueue, dev)
			bottleneck.EnableQueueSeries(fs.ID)
			snd = cc.NewSender(ueEng, fs.ID, bottleneck, ctrl)
			fr.snd = snd
			ueEng.At(start, snd.Start)
			if stop < end {
				ueEng.At(stop, snd.Stop)
			}
		}
	}

	// PRB sampling for the fairness figures, on the primary cell's shard.
	if sc.PRBSampleEvery > 0 && len(sc.Cells) > 0 {
		eng := pl.cell(sc.Cells[0].ID).Engine
		primary := cells[sc.Cells[0].ID]
		acc := map[uint16]int{}
		subframes := 0
		rnti2ue := map[uint16]int{}
		for _, us := range sc.UEs {
			rnti2ue[us.RNTI] = us.ID
		}
		primary.AttachMonitor(func(rep *ran.SubframeReport) {
			for _, a := range rep.Allocs {
				if _, ok := rnti2ue[a.RNTI]; ok {
					acc[a.RNTI] += a.PRBs
				}
			}
			subframes++
		})
		eng.Every(sc.PRBSampleEvery, func() {
			res.PRBTimes = append(res.PRBTimes, eng.Now())
			for rnti, ueID := range rnti2ue {
				avg := 0.0
				if subframes > 0 {
					avg = float64(acc[rnti]) / float64(subframes)
				}
				res.PRBSamples[ueID] = append(res.PRBSamples[ueID], avg)
				acc[rnti] = 0
			}
			subframes = 0
		})
	}

	pl.cluster.RunUntil(sc.Duration)
	res.Trace = pl.cluster.Recorder()
	res.Series = pl.cluster.SeriesRecorder()
	if flRT != nil {
		res.Fluid = flRT.stats()
	}

	for i, fr := range res.Flows {
		if fr.windows != nil {
			fr.Tput = fr.windows.RatesMbps(fr.start, fr.stop)
			span := (fr.stop - fr.start).Seconds()
			var bytes float64
			for _, b := range fr.windows.Buckets() {
				bytes += b
			}
			if span > 0 {
				fr.AvgTputMbps = bytes * 8 / span / 1e6
			}
			fr.buildTimeline()
		}
		if fr.snd != nil {
			fr.Lost = fr.snd.LostPackets
			fr.Received = fr.snd.AckedPackets
		}
		if fr.msnd != nil && fr.Frames != nil {
			fr.Frames.SenderDrop = fr.msnd.FramesDropped
		}
		if fr.pbe != nil {
			fr.InternetFrac = fr.pbe.InternetFraction()
		}
		if SchemeUsesMonitor(fr.Scheme) {
			if pr := probes[sc.Flows[i].UE]; pr != nil {
				fr.PBEErrPct = pr.ErrPct()
			}
		}
	}
	for _, ue := range anchors {
		if ue.Activations > 0 {
			res.CATriggered = true
		}
	}
	for _, e := range endcs {
		if e.Activations > 0 {
			res.CATriggered = true
			res.NRActivated = true
		}
	}
	return res
}

// device is the UE-side endpoint a flow terminates on, regardless of RAT:
// an LTE or standalone 5G UE (both *ran.UE), or an EN-DC dual-connectivity
// UE.
type device interface {
	netsim.Handler
	RegisterFlow(flowID int, h netsim.Handler)
	SetDefaultHandler(h netsim.Handler)
	ActiveCells() []*ran.Cell
	OnActiveChange(fn func(active []*ran.Cell))
}

// cellIDs lists the UE's configured carriers, LTE first: the order its
// monitors are fed in, and whose head is the primary cell.
func (us *UESpec) cellIDs() []int {
	return append(append([]int(nil), us.CellIDs...), us.NRCellIDs...)
}

// cellSet is the attached-cell side of a monitor, or of the fault
// injector interposed in front of one.
type cellSet interface {
	AttachCell(info core.CellInfo)
	DetachCell(id int)
}

// mirrorActiveCells keeps the oracle monitor - and the transport monitor
// when there is one - tracking exactly the device's active carrier set,
// now and on every change. The oracle's cell set is the source of truth
// for "already attached": under the Miss fault axis the transport monitor
// itself lags the desired set.
func mirrorActiveCells(dev device, ueID int, channels map[[2]int]*phy.Channel, oracle *core.Monitor, transport cellSet) {
	sync := func(active []*ran.Cell) {
		for _, c := range active {
			if slices.Contains(oracle.ActiveCellIDs(), c.ID) {
				continue
			}
			ch := channels[[2]int{ueID, c.ID}]
			info := core.CellInfo{
				ID:               c.ID,
				NPRB:             c.NPRB,
				SlotsPerSubframe: c.SlotsPerSubframe(),
				CBGBits:          c.CBGBits(),
				Rate:             func() float64 { return ch.MCS().BitsPerPRB() },
				BER:              func() float64 { return ch.BER() },
			}
			if transport != nil {
				transport.AttachCell(info)
			}
			oracle.AttachCell(info)
		}
		for _, id := range slices.Clone(oracle.ActiveCellIDs()) {
			if slices.ContainsFunc(active, func(c *ran.Cell) bool { return c.ID == id }) {
				continue
			}
			if transport != nil {
				transport.DetachCell(id)
			}
			oracle.DetachCell(id)
		}
	}
	sync(dev.ActiveCells())
	dev.OnActiveChange(sync)
}

func (fr *FlowResult) buildTimeline() {
	buckets := fr.windows.Buckets()
	// Pad to the flow's stop time so silent periods (a starved sender)
	// appear as zero-rate windows rather than a truncated series.
	n := int(fr.stop / fr.windows.Window)
	for i := 0; i < n; i++ {
		t := time.Duration(i) * fr.windows.Window
		if t < fr.start || t >= fr.stop {
			continue
		}
		var b float64
		if i < len(buckets) {
			b = buckets[i]
		}
		fr.TimelineT = append(fr.TimelineT, t)
		fr.TimelineR = append(fr.TimelineR, b*8/fr.windows.Window.Seconds()/1e6)
	}
}

// clientGroup shares one UE's capacity estimate across its concurrent PBE
// flows (§6.3.4: the client fairly allocates estimated capacity to its
// own connections).
type clientGroup struct {
	clients []*core.Client
}

type sharedFeedback struct {
	c   *core.Client
	grp *clientGroup
}

// Feedback divides the client's capacity feedback by the number of local
// PBE flows.
func (s *sharedFeedback) Feedback(now time.Duration, owd time.Duration, dataBytes int) (float64, bool) {
	rate, btl := s.c.Feedback(now, owd, dataBytes)
	n := len(s.grp.clients)
	if n > 1 {
		rate /= float64(n)
	}
	return rate, btl
}

// monitorFeed returns the feed of cell reports into mon, routed through
// the PDCCH encode/blind-decode pipeline when decode is set.
func monitorFeed(decode bool, cell *ran.Cell, mon *core.Monitor) ran.Monitor {
	if !decode {
		return mon.OnSubframe
	}
	dec := pdcch.NewDecoder(0)
	return func(rep *ran.SubframeReport) {
		region := lte.EncodeReport(rep, 3)
		if region == nil {
			mon.OnSubframe(rep) // control region overflow: fall back
			return
		}
		mon.OnSubframe(lte.DecodeReport(region, rep.CellID, cell.Table, dec))
	}
}

func scheduleOnOff(eng *sim.Engine, ct *netsim.CrossTraffic, fs *FlowSpec, stop time.Duration, mark bool) {
	if fs.OnPeriod <= 0 {
		eng.At(fs.Start, ct.Start)
		eng.At(stop, ct.Stop)
		return
	}
	start := ct.Start
	if mark {
		// Same single event per on-transition; the series sample is a
		// passive observation inside it.
		start = func() {
			faults.MarkInjection(eng)
			ct.Start()
		}
	}
	var cycle func(at time.Duration)
	cycle = func(at time.Duration) {
		if at >= stop {
			return
		}
		eng.At(at, start)
		off := at + fs.OnPeriod
		if off > stop {
			off = stop
		}
		eng.At(off, ct.Stop)
		cycle(at + fs.OnPeriod + fs.OffPeriod)
	}
	cycle(fs.Start)
}

// flowFeedback builds the receiver-side feedback source a scheme needs:
// the PBE client (shared across the UE's PBE flows) or the GCC REMB
// estimator; nil for schemes without receiver feedback.
func flowFeedback(fs *FlowSpec, fr *FlowResult, monitors map[int]*core.Monitor, clientGroups map[int]*clientGroup) cc.FeedbackSource {
	switch fs.Scheme {
	case "pbe":
		client := core.NewClient(monitors[fs.UE])
		grp := clientGroups[fs.UE]
		grp.clients = append(grp.clients, client)
		fr.pbe = client
		return &sharedFeedback{c: client, grp: grp}
	case "gcc":
		return gcc.NewREMB()
	case "pbertc":
		return pbertc.NewFeedback(monitors[fs.UE])
	}
	return nil
}

// newController builds a controller by scheme name.
func newController(name string) cc.Controller {
	switch name {
	case "pbe":
		return core.NewSender()
	case "gcc":
		return gcc.New()
	case "pbertc":
		return pbertc.New()
	case "bbr":
		return bbr.New()
	case "cubic":
		return cubic.New()
	case "copa":
		return copa.New()
	case "verus":
		return verus.New()
	case "sprout":
		return sprout.New()
	case "pcc":
		return pcc.New()
	case "vivace":
		return vivace.New()
	}
	panic(fmt.Sprintf("harness: unknown scheme %q", name))
}
