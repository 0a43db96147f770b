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

// scheme is one row of the scheme table: everything the harness needs to
// stand a flow of that congestion-control algorithm up.
type scheme struct {
	name       string
	controller func() cc.Controller
	// feedback builds the receiver-side feedback source, given the UE's
	// PBE monitor (nil unless usesMonitor); nil for schemes whose receiver
	// only echoes timestamps.
	feedback func(mon *core.Monitor) cc.FeedbackSource
	// usesMonitor: the scheme consumes the PBE monitor's physical-layer
	// capacity feed, so its UE gets a monitor and it alone reacts to the
	// measurement-noise and monitor-fault axes.
	usesMonitor bool
}

// schemes is the scheme table: the paper's order (§6.1), then the GCC/REMB
// real-time baseline and the pbertc physical-layer/GCC hybrid. Adding a
// scheme is adding a row.
var schemes = []scheme{
	{"pbe", controller(core.NewSender), feedback(core.NewClient), true},
	{"bbr", controller(bbr.New), nil, false},
	{"cubic", controller(cubic.New), nil, false},
	{"verus", controller(verus.New), nil, false},
	{"sprout", controller(sprout.New), nil, false},
	{"copa", controller(copa.New), nil, false},
	{"pcc", controller(pcc.New), nil, false},
	{"vivace", controller(vivace.New), nil, false},
	{"gcc", controller(gcc.New), func(*core.Monitor) cc.FeedbackSource { return gcc.NewREMB() }, false},
	{"pbertc", controller(pbertc.New), feedback(pbertc.NewFeedback), true},
}

// controller and feedback adapt a scheme package's constructor, which
// returns its concrete type, to the table's column types.
func controller[C cc.Controller](newC func() C) func() cc.Controller {
	return func() cc.Controller { return newC() }
}

func feedback[F cc.FeedbackSource](newF func(*core.Monitor) F) func(*core.Monitor) cc.FeedbackSource {
	return func(mon *core.Monitor) cc.FeedbackSource { return newF(mon) }
}

// Schemes lists every congestion-control algorithm under test, in scheme
// table order.
var Schemes = func() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}()

// lookupScheme returns the named scheme's table row, or nil.
func lookupScheme(name string) *scheme {
	for i := range schemes {
		if schemes[i].name == name {
			return &schemes[i]
		}
	}
	return nil
}

// SchemeUsesMonitor reports whether a scheme consumes the PBE monitor's
// physical-layer capacity feed. Only these schemes react to the
// measurement-noise and monitor-fault axes; for the rest, faulted jobs
// would duplicate the clean run exactly.
func SchemeUsesMonitor(name string) bool {
	s := lookupScheme(name)
	return s != nil && s.usesMonitor
}

// lteNPRB is every LTE carrier's width: 100 PRBs, 20 MHz.
const lteNPRB = 100

// CellSpec describes one 20 MHz LTE component carrier, 64-QAM.
type CellSpec struct {
	ID      int
	Control ran.ControlSource // nil = no control-plane chatter
}

// NRCellSpec describes one 5G NR carrier, 256-QAM, whose width in PRBs
// follows from Mu and BandwidthMHz (phy.NRCarrierPRBs). Cell IDs share a
// namespace with the LTE cells (the monitor tracks both RATs in one
// table), so NR cells conventionally number from 101.
type NRCellSpec struct {
	ID           int
	Mu           int // numerology µ: 0..3
	BandwidthMHz int
	Control      ran.ControlSource // nil = no control-plane chatter
}

// UESpec describes one mobile device. A UE with only CellIDs is an LTE
// device, one with only NRCellIDs is a standalone 5G device, and one with
// both is an EN-DC dual-connectivity device whose first NR cell is the
// secondary cell group behind the LTE anchor. RSSI, or Trajectory when
// set, is the signal on every carrier of the device.
type UESpec struct {
	ID          int
	RNTI        uint16
	CellIDs     []int // LTE carriers, primary first
	NRCellIDs   []int // NR carriers
	RSSI        float64
	Trajectory  phy.Trajectory // overrides RSSI when non-nil
	FadingSigma float64
	CA          bool // LTE carrier aggregation enabled
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

	// Media replaces the full-buffer sender with the frame-level RTC
	// pipeline (encoder -> packetizer/pacer -> jitter buffer); Scheme
	// still chooses the congestion controller. Ignored for "fixed" flows
	// and SFU legs.
	Media bool

	// SFULeg makes this flow one subscriber leg of the scenario's SFU
	// fan-out: the relay forwards the selected simulcast layer to the
	// UE, paced by the leg's own congestion controller. In sharded runs
	// the leg's two wired hops are cross-shard links between the wired
	// core and the UE's cell shard. Requires Scenario.SFU.
	SFULeg bool
}

// Scenario is a complete experiment.
type Scenario struct {
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

	// SFU stands up an SFU fan-out: one simulcast ingest stream enters a
	// frame-level relay over a provisioned wired path (see
	// buildSFUIngest), and every flow marked SFULeg becomes a subscriber
	// leg from the relay through the cellular network to its UE.
	SFU bool

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

	// Series records the run's downsampled virtual-time series (40 ms
	// windows): ground-truth versus estimated capacity, every cc flow's
	// rate/cwnd/acked-volume trajectory, bottleneck queue depth, frame
	// delay and freeze onsets, frame sheds, and fault-injection markers -
	// exported through Result.Series as CSV or Chrome trace-event JSON.
	// Recording changes what is observed, never what happens: the sweep
	// runner keeps it on for every job, and rows are byte-identical
	// either way.
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

// NominalCapacityMbps returns the scenario's aggregate peak physical
// capacity: every cell at its top CQI with two spatial streams. It is the
// denominator of the sweep runner's utilization metric.
func (sc *Scenario) NominalCapacityMbps() float64 {
	var bps float64
	for range sc.Cells {
		peak := phy.MCS{CQI: 15, Table: phy.Table64QAM, Streams: 2}
		bps += peak.BitsPerPRB() * lteNPRB * 1000
	}
	for _, ns := range sc.NRCells {
		peak := phy.MCS{CQI: 15, Table: phy.Table256QAM, Streams: 2}
		bps += phy.NRCellRateBps(peak, ns.Mu, phy.NRCarrierPRBs(ns.Mu, ns.BandwidthMHz))
	}
	return bps / 1e6
}

// FlowResult is one flow's measured performance.
type FlowResult struct {
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

	// Frames holds frame-level QoE metrics for media flows (nil for
	// bulk flows).
	Frames *rtc.FrameStats

	snd     *cc.Sender
	msnd    *rtc.Sender
	windows *stats.Windowed
	start   time.Duration
	stop    time.Duration
	pbe     *core.Client // the flow's PBE client, if its scheme has one
	probe   *pbeProbe    // its UE's accuracy probe, if its scheme uses the monitor
}

// TimelineAvg averages the flow's 100 ms throughput windows that start in
// [from, to), in Mbit/s (0 when none does). Windows of the flow's active
// period [start, stop) count; a window with no delivery counts as zero.
func (f *FlowResult) TimelineAvg(from, to time.Duration) float64 {
	w := f.windows.Window
	buckets := f.windows.Buckets()
	var sum float64
	n := 0
	for i := 0; i < int(f.stop/w); i++ {
		t := time.Duration(i) * w
		if t < f.start || t >= f.stop || t < from || t >= to {
			continue
		}
		var b float64
		if i < len(buckets) {
			b = buckets[i]
		}
		sum += b * 8 / w.Seconds() / 1e6
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Result is a completed scenario. A result from Arena.Run is valid until it
// is handed back with Arena.Reclaim: its delay samples, series and engines
// then belong to the arena's next run, so read everything needed first.
type Result struct {
	Flows []*FlowResult

	// CATriggered reports whether any UE activated a secondary carrier
	// (an LTE secondary cell or an EN-DC NR secondary cell group).
	CATriggered bool

	// NRActivated reports whether any EN-DC UE activated its NR leg.
	NRActivated bool

	// PRBSamples[ueIndex] holds the sampled primary-cell PRB shares.
	PRBTimes   []time.Duration
	PRBSamples map[int][]float64

	// Series is the run's merged virtual-time series when Scenario.Series
	// was set (nil otherwise); export with Series.WriteCSV or feed it to
	// the sweep trajectory analytics.
	Series *obs.SeriesRecorder

	// Fluid aggregates the fluid background tier's offered/served load
	// when Scenario.Fluid was set (nil otherwise).
	Fluid *fluid.Stats

	cluster *sim.Cluster // what Arena.Reclaim recycles
}

// Validate reports the first structural error in the scenario: a cell ID
// declared twice (LTE and NR cells share one namespace), an LTE cell with
// no PRBs, an NR cell whose (Mu, BandwidthMHz) has no 3GPP carrier width,
// a duplicate UE ID, a UE with no cells, a UE naming an unknown cell or a
// cell of the other RAT, an EN-DC UE with more than one NR cell, and a
// flow on an unknown UE, of an unknown scheme, marked SFULeg without an
// SFU, with a negative Start, Stop, OnPeriod or OffPeriod, or with a
// non-zero Stop before its Start or after the scenario's Duration; and a fluid
// spec that would run silently wrong (see FluidSpec.validate).
// BuildScenario returns this error; Run panics with it.
func (sc *Scenario) Validate() error {
	isLTE := make(map[int]bool, len(sc.Cells)+len(sc.NRCells))
	for i, id := range sc.cellIDs() {
		if _, dup := isLTE[id]; dup {
			return fmt.Errorf("cell %d declared twice", id)
		}
		isLTE[id] = i < len(sc.Cells)
	}
	for _, ns := range sc.NRCells {
		if phy.NRCarrierPRBs(ns.Mu, ns.BandwidthMHz) == 0 {
			return fmt.Errorf("NR cell %d: µ=%d at %d MHz has no 3GPP carrier width", ns.ID, ns.Mu, ns.BandwidthMHz)
		}
	}
	ues := make(map[int]bool, len(sc.UEs))
	for _, us := range sc.UEs {
		switch {
		case ues[us.ID]:
			return fmt.Errorf("UE %d declared twice", us.ID)
		case len(us.CellIDs)+len(us.NRCellIDs) == 0:
			return fmt.Errorf("UE %d has no cells", us.ID)
		case len(us.CellIDs) > 0 && len(us.NRCellIDs) > 1:
			return fmt.Errorf("EN-DC UE %d names %d NR cells; EN-DC supports one", us.ID, len(us.NRCellIDs))
		}
		ues[us.ID] = true
		for i, ids := range [...][]int{us.CellIDs, us.NRCellIDs} {
			for _, id := range ids {
				if lte, ok := isLTE[id]; !ok {
					return fmt.Errorf("UE %d names unknown cell %d", us.ID, id)
				} else if lte != (i == 0) {
					return fmt.Errorf("UE %d names cell %d as a carrier of the other RAT", us.ID, id)
				}
			}
		}
	}
	for _, fs := range sc.Flows {
		switch {
		case !ues[fs.UE]:
			return fmt.Errorf("flow %d is on unknown UE %d", fs.ID, fs.UE)
		case fs.Scheme != "fixed" && lookupScheme(fs.Scheme) == nil:
			return fmt.Errorf("flow %d has unknown scheme %q (valid: %v or \"fixed\")", fs.ID, fs.Scheme, Schemes)
		case fs.SFULeg && !sc.SFU:
			return fmt.Errorf("flow %d is marked SFULeg but the scenario has no SFU", fs.ID)
		case fs.Start < 0 || fs.Stop < 0 || fs.OnPeriod < 0 || fs.OffPeriod < 0:
			return fmt.Errorf("flow %d has negative timing: Start %v, Stop %v, OnPeriod %v, OffPeriod %v",
				fs.ID, fs.Start, fs.Stop, fs.OnPeriod, fs.OffPeriod)
		case fs.Stop != 0 && (fs.Stop < fs.Start || fs.Stop > sc.Duration):
			return fmt.Errorf("flow %d stops at %v, outside its run from Start %v to the scenario's Duration %v",
				fs.ID, fs.Stop, fs.Start, sc.Duration)
		}
	}
	if sc.Fluid != nil {
		return sc.Fluid.validate(isLTE)
	}
	return nil
}

// Run executes the scenario and collects per-flow statistics. It runs on a
// throwaway arena: the path is the one Arena.Run takes, and the result is
// never handed back. It panics if the scenario fails Validate.
func Run(sc *Scenario) *Result { return NewArena().Run(sc) }

// build carries one run's construction state from stage to stage. The
// stages keep a fixed order - cells, fluid, UEs in spec order, monitors,
// truth oracle, SFU ingest, flows, PRB sampler - because fading channels,
// the monitor noise stream and faults.New draw from shard random sources
// as they are built.
type build struct {
	sc  *Scenario
	a   *Arena
	pl  *placement
	res *Result

	cells    map[int]*ran.Cell       // LTE and NR cells, one ID namespace
	fluid    *fluidRuntime           // nil without Scenario.Fluid
	specs    map[int]*UESpec         // by UE ID
	devices  map[int]device          // by UE ID
	channels map[[2]int]*phy.Channel // (ueID, cellID) -> channel
	probes   map[int]*pbeProbe       // by UE ID: each monitor and its probe
}

func run(sc *Scenario, a *Arena) *Result {
	if err := sc.Validate(); err != nil {
		panic("harness: " + err.Error())
	}
	pl := newPlacement(sc, a)
	b := &build{sc: sc, a: a, pl: pl,
		res:      &Result{PRBSamples: map[int][]float64{}, cluster: pl.cluster},
		cells:    map[int]*ran.Cell{},
		specs:    make(map[int]*UESpec, len(sc.UEs)),
		devices:  map[int]device{},
		channels: map[[2]int]*phy.Channel{},
		probes:   map[int]*pbeProbe{},
	}
	b.buildCells()
	defer b.fluid.join()
	for i := range sc.UEs {
		b.buildDevice(&sc.UEs[i])
	}
	b.buildMonitors()
	b.buildTruthOracle()
	b.buildFlows()
	b.buildPRBSampler()
	pl.cluster.RunUntil(sc.Duration)
	return b.collect()
}

// buildCells stands up every LTE and NR cell, then the fluid tier on them.
func (b *build) buildCells() {
	for _, cs := range b.sc.Cells {
		b.cells[cs.ID] = lte.NewCell(b.pl.byCell[cs.ID].Engine, cs.ID, lteNPRB, phy.Table64QAM, cs.Control)
	}
	for _, ns := range b.sc.NRCells {
		b.cells[ns.ID] = nr.NewCell(b.pl.byCell[ns.ID].Engine, nr.Config{
			ID: ns.ID, Mu: ns.Mu, BandwidthMHz: ns.BandwidthMHz, Control: ns.Control,
		})
	}
	if b.sc.Fluid != nil {
		b.fluid = setupFluid(b.sc, b.pl, b.cells)
	}
}

// buildDevice stands up one UE: an LTE device, a standalone 5G device, or
// an EN-DC device whose LTE anchor carries one NR secondary cell group.
func (b *build) buildDevice(us *UESpec) {
	eng := b.pl.ueShard(us).Engine
	channel := func(cid int) *phy.Channel {
		var fading *phy.Fading
		if us.FadingSigma > 0 {
			fading = phy.NewFading(us.FadingSigma, 50*time.Millisecond, eng.Rand())
		}
		var ch *phy.Channel
		if us.Trajectory != nil {
			ch = phy.NewMobileChannel(us.Trajectory, b.cells[cid].Table, fading)
		} else {
			ch = phy.NewStaticChannel(us.RSSI, b.cells[cid].Table, fading)
		}
		b.channels[[2]int{us.ID, cid}] = ch
		return ch
	}
	addCells := func(ue *ran.UE, ids []int) {
		for _, cid := range ids {
			ue.AddCell(b.cells[cid], channel(cid))
		}
	}
	b.specs[us.ID] = us
	if len(us.CellIDs) == 0 {
		ue := nr.NewUE(eng, us.ID, us.RNTI)
		addCells(ue, us.NRCellIDs)
		b.devices[us.ID] = ue
		return
	}
	anchor := lte.NewUE(eng, us.ID, us.RNTI)
	addCells(anchor, us.CellIDs)
	anchor.SetCarrierAggregation(us.CA)
	if len(us.NRCellIDs) == 0 {
		anchor.Start()
		b.devices[us.ID] = anchor
		return
	}
	cid := us.NRCellIDs[0]
	endc := nr.NewENDC(eng, anchor, b.cells[cid], channel(cid))
	endc.Start()
	b.devices[us.ID] = endc
}

// buildMonitors gives every UE hosting a monitor-using flow one PBE
// monitor, fed by every configured cell but tracking only the active set,
// and its measurement-accuracy probe (newProbe).
func (b *build) buildMonitors() {
	sc := b.sc
	for _, fs := range sc.Flows {
		if !SchemeUsesMonitor(fs.Scheme) || b.probes[fs.UE] != nil {
			continue
		}
		us := b.specs[fs.UE]
		sh := b.pl.ueShard(us)
		mon := core.NewMonitor(us.RNTI)
		mon.UseFilter = !sc.DisableUserFilter
		if sigma := sc.CapacityNoise; sigma > 0 {
			// The monitor runs on the UE's shard; its noise stream draws
			// from that shard's engine.
			rng := sh.Rand()
			mon.Noise = func(v float64) float64 {
				return v * (1 + sigma*rng.NormFloat64())
			}
		}
		// Monitor-fault axes interpose an injector on every attach,
		// detach and control feed. The probe's oracle stays on the
		// direct path: it is the fault-free reference PBEErrPct is
		// measured against. With no axes active the injector is never
		// constructed and the clean path is byte-identical to before.
		var transport cellSet = mon
		wrap := func(m ran.Monitor) ran.Monitor { return m }
		if sc.Faults.MonitorAxes() {
			inj := faults.New(sh.Engine, mon, sc.Faults, sc.Seed, us.RNTI)
			transport, wrap = inj, inj.WrapFeed
		}
		for i, cid := range us.cellIDs() {
			// The bit-level PDCCH encode/decode path models the LTE
			// control channel only; NR control information always feeds
			// the monitor directly.
			decode := sc.MonitorDecodesPDCCH && i < len(us.CellIDs)
			b.cells[cid].AttachMonitor(wrap(monitorFeed(decode, b.cells[cid], mon)))
		}
		b.probes[fs.UE] = b.newProbe(us, mon, transport)
	}
}

// buildFlows stands up the SFU relay, if any, then every flow in spec
// order.
func (b *build) buildFlows() {
	var sfu *rtc.SFU
	if b.sc.SFU {
		sfu = buildSFUIngest(b.pl.core.Engine)
	}
	for i := range b.sc.Flows {
		b.buildFlow(&b.sc.Flows[i], sfu)
	}
}

// buildFlow wires one flow - a fixed-rate source, an SFU leg, a media
// flow or a bulk download - and its measurement.
func (b *build) buildFlow(fs *FlowSpec, sfu *rtc.SFU) {
	sc, end := b.sc, b.sc.Duration
	stop := fs.Stop
	if stop == 0 {
		stop = end
	}
	var delay stats.DelayDist
	if sc.StreamStats {
		delay = stats.NewDurationP2()
	} else {
		delay = b.a.delaySeries()
	}
	fr := &FlowResult{Scheme: fs.Scheme, Tput: &stats.Series{}, Delay: delay}
	b.res.Flows = append(b.res.Flows, fr)
	dev := b.devices[fs.UE]
	ueSh := b.pl.ueShard(b.specs[fs.UE])
	ueEng := ueSh.Engine

	row := lookupScheme(fs.Scheme)
	if row == nil { // "fixed"
		ct := netsim.NewCrossTraffic(ueEng, dev, fs.FixedRate, fs.ID)
		// The OnOff fault competitor's on-transitions are injection
		// events for the recovery analytics; the competition family's
		// deliberate competitor is workload, not a fault.
		mark := sc.Faults.OnOff > 0 && fs.OnPeriod == faults.OnOffHalfPeriod &&
			fs.OffPeriod == faults.OnOffHalfPeriod
		scheduleOnOff(ueEng, ct, fs, stop, mark)
		return
	}

	ctrl := row.controller()
	if p, ok := ctrl.(*core.Sender); ok && sc.MisreportGuard > 0 {
		p.MisreportGuard = sc.MisreportGuard
	}
	var mon *core.Monitor
	if row.usesMonitor {
		fr.probe = b.probes[fs.UE]
		mon = fr.probe.mon
	}
	var fb cc.FeedbackSource
	if row.feedback != nil {
		fb = row.feedback(mon)
		fr.pbe, _ = fb.(*core.Client)
	}

	windows := stats.NewWindowed(100*time.Millisecond, stop)
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
		attachSubscriber(ueSh, b.pl.core, sfu, fs, fr, dev, ctrl, fb, onData, end)
	case fs.Media:
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

// buildPRBSampler samples each UE's primary-cell PRB share for the
// fairness figures, on the primary cell's shard.
func (b *build) buildPRBSampler() {
	sc, res := b.sc, b.res
	if sc.PRBSampleEvery <= 0 || len(sc.Cells) == 0 {
		return
	}
	eng := b.pl.byCell[sc.Cells[0].ID].Engine
	acc := map[uint16]int{}
	subframes := 0
	rnti2ue := map[uint16]int{}
	for _, us := range sc.UEs {
		rnti2ue[us.RNTI] = us.ID
	}
	b.cells[sc.Cells[0].ID].AttachMonitor(func(rep *ran.SubframeReport) {
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

// collect reads the finished run into the result: the series, fluid
// accounting, per-flow statistics, and whether any device activated a
// secondary carrier (LTE legs only: LTE devices and EN-DC anchors).
func (b *build) collect() *Result {
	res := b.res
	res.Series = b.pl.cluster.SeriesRecorder()
	if b.fluid != nil {
		res.Fluid = b.fluid.stats()
	}
	for _, fr := range res.Flows {
		fr.collect()
	}
	for _, us := range b.sc.UEs {
		switch d := b.devices[us.ID].(type) {
		case *nr.ENDC:
			if d.Activations > 0 {
				res.CATriggered, res.NRActivated = true, true
			}
			if d.Anchor().Activations > 0 {
				res.CATriggered = true
			}
		case *ran.UE:
			if len(us.CellIDs) > 0 && d.Activations > 0 {
				res.CATriggered = true
			}
		}
	}
	return res
}

// collect derives the flow's statistics from what the run recorded.
func (fr *FlowResult) collect() {
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
	if fr.probe != nil {
		fr.PBEErrPct = fr.probe.ErrPct()
	}
}

// device is the UE-side endpoint a flow terminates on, regardless of RAT:
// an LTE or standalone 5G UE (both *ran.UE), or an EN-DC dual-connectivity
// UE.
type device interface {
	netsim.Handler
	RegisterFlow(flowID int, h netsim.Handler)
	ActiveCells() []*ran.Cell
	OnActiveChange(fn func(active []*ran.Cell))
}

// cellIDs lists the scenario's cells, LTE first: the declaration order.
func (sc *Scenario) cellIDs() []int {
	ids := make([]int, 0, len(sc.Cells)+len(sc.NRCells))
	for _, cs := range sc.Cells {
		ids = append(ids, cs.ID)
	}
	for _, ns := range sc.NRCells {
		ids = append(ids, ns.ID)
	}
	return ids
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
// now and on every change. transport is nil only for the capacity probe
// the series records for a scheme that reads no monitor (probe.go). The
// oracle's cell set is the source of truth for "already attached": under
// the Miss fault axis the transport monitor itself lags the desired set.
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

// MeasuresInternetState reports whether InternetFrac was measured: the
// flow's receiver ran the PBE client's bottleneck detector.
func (fr *FlowResult) MeasuresInternetState() bool { return fr.pbe != nil }

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
	// Validate rejects negative periods, so with OnPeriod > 0 every cycle
	// advances.
	for at := fs.Start; at < stop; at += fs.OnPeriod + fs.OffPeriod {
		eng.At(at, start)
		eng.At(min(at+fs.OnPeriod, stop), ct.Stop)
	}
}
