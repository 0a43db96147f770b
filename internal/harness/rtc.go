package harness

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/netsim"
	"pbecc/internal/rtc"
	"pbecc/internal/sim"
)

// The SFU ingest leg: a server streams into the relay over a wired link.
const (
	// sfuIngestFlowID keeps the ingest leg's flow ID out of the
	// subscriber flows' namespace (subscriber IDs count up from 1).
	sfuIngestFlowID = 1000

	sfuIngestRTT   = 20 * time.Millisecond // round-trip propagation
	sfuIngestRate  = 100e6                 // bottleneck rate, bits/sec
	sfuIngestQueue = 128 * 1500            // drop-tail queue, bytes
)

// provisionedController paces at a fixed rate with a generous window:
// the SFU's dedicated ingest uplink.
type provisionedController struct{ rate float64 }

func (c *provisionedController) Name() string                                          { return "provisioned" }
func (c *provisionedController) OnSent(now time.Duration, seq uint64, bytes, infl int) {}
func (c *provisionedController) OnAck(s cc.AckSample)                                  {}
func (c *provisionedController) OnLoss(l cc.LossSample)                                {}
func (c *provisionedController) PacingRate() float64                                   { return c.rate }
func (c *provisionedController) CWND() int                                             { return 1 << 30 }

// attachMediaFlow wires one frame-level RTC flow: encoder ->
// packetizer/pacer -> (internet bottleneck) -> tower -> UE -> jitter
// buffer, with acknowledgements returning over the reverse path. The
// congestion controller paces the media packets and drives the encoder's
// rate-ladder adaptation.
func attachMediaFlow(eng *sim.Engine, fs *FlowSpec, fr *FlowResult, dev device,
	ctrl cc.Controller, fb cc.FeedbackSource,
	onData func(time.Duration, *netsim.Packet, time.Duration), end time.Duration) {
	var spec rtc.MediaSpec
	var msnd *rtc.Sender
	ackLink := netsim.NewLink(eng, 0, fs.RTTBase/2, 0,
		netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			msnd.HandlePacket(now, p)
		}))
	mrcv := rtc.NewReceiver(eng, fs.ID, ackLink, spec)
	mrcv.Transport().Feedback = fb
	mrcv.OnData = onData
	mrcv.EnableSeries(fs.ID)
	dev.RegisterFlow(fs.ID, mrcv)

	bottleneck := netsim.NewLink(eng, fs.InternetRate, fs.RTTBase/2, fs.InternetQueue, dev)
	bottleneck.EnableQueueSeries(fs.ID)
	msnd = rtc.NewSender(eng, fs.ID, bottleneck, ctrl, spec)
	enc := rtc.NewEncoder(eng, spec, msnd.QueueFrame)
	enc.Available = msnd.AvailableRate

	fr.Frames = mrcv.Stats()
	fr.msnd = msnd
	fr.snd = msnd.Transport()
	eng.At(fr.start, func() { msnd.Start(); enc.Start() })
	if fr.stop < end {
		eng.At(fr.stop, func() { enc.Stop(); msnd.Stop() })
	}
}

// buildSFUIngest stands the relay up: a content server encodes every
// simulcast rung and streams them over a wired path into the SFU, whose
// jitter buffer reassembles frames and fans them out to the subscriber
// legs registered afterwards. The ingest is provisioned: it paces at twice
// the simulcast bundle rate without adapting - a production SFU's
// dedicated uplink - so the scenario's congestion dynamics live on the
// subscriber legs.
func buildSFUIngest(eng *sim.Engine) *rtc.SFU {
	spec := rtc.MediaSpec{Simulcast: true}
	sfu := rtc.NewSFU(eng, spec)

	var bundle float64
	for _, r := range rtc.DefaultLadder {
		bundle += r
	}
	ctrl := &provisionedController{rate: 2 * bundle}
	var isnd *rtc.Sender
	ackLink := netsim.NewLink(eng, 0, sfuIngestRTT/2, 0,
		netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			isnd.HandlePacket(now, p)
		}))
	ircv := rtc.NewReceiver(eng, sfuIngestFlowID, ackLink, spec)
	ircv.OnFrame = func(f rtc.Frame, _ time.Duration) { sfu.OnFrame(f) }
	path := netsim.NewLink(eng, sfuIngestRate, sfuIngestRTT/2, sfuIngestQueue, ircv)
	isnd = rtc.NewSender(eng, sfuIngestFlowID, path, ctrl, spec)
	enc := rtc.NewEncoder(eng, spec, isnd.QueueFrame)
	isnd.Start()
	enc.Start()
	return sfu
}

// attachSubscriber wires one SFU fan-out leg: the relay forwards the
// subscriber's selected simulcast layer through the cellular network to
// the UE's jitter buffer; the leg's own congestion controller paces the
// forwarding and drives layer selection. The forwarding pacer lives on
// the wired-core shard with the relay; the receiver lives on the UE's
// cell shard; the two wired hops between them are the scenario's
// cross-shard boundaries (plain links when both sides share a shard).
func attachSubscriber(ue, core *sim.Shard, sfu *rtc.SFU, fs *FlowSpec, fr *FlowResult, dev device,
	ctrl cc.Controller, fb cc.FeedbackSource,
	onData func(time.Duration, *netsim.Packet, time.Duration), end time.Duration) {
	var sub *rtc.Subscriber
	ackLink := netsim.NewCrossLink(ue, core, 0, fs.RTTBase/2, 0,
		netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			sub.Send.HandlePacket(now, p)
		}))
	srcv := rtc.NewReceiver(ue.Engine, fs.ID, ackLink, sfu.LegSpec())
	srcv.Transport().Feedback = fb
	srcv.OnData = onData
	srcv.EnableSeries(fs.ID)
	dev.RegisterFlow(fs.ID, srcv)

	dataPath := netsim.NewCrossLink(core, ue, fs.InternetRate, fs.RTTBase/2, fs.InternetQueue, dev)
	dataPath.EnableQueueSeries(fs.ID)
	sub = sfu.AddSubscriber(fs.ID, dataPath, ctrl)

	fr.Frames = srcv.Stats()
	fr.msnd = sub.Send
	fr.snd = sub.Send.Transport()
	core.Engine.At(fr.start, sub.Send.Start)
	if fr.stop < end {
		core.Engine.At(fr.stop, sub.Send.Stop)
	}
}

// RTCScenario is the interactive-call family: the steady-state topology
// carrying a frame-level adaptive video stream instead of a bulk
// download, measured on frame-level QoE (p50/p95 frame delay, freeze
// time, frames past deadline). Supports both RATs and the Cells and
// CapacityNoise axes, like steady.
func RTCScenario(scheme string, p Params) *Scenario {
	sc := SteadyScenario(scheme, p)
	sc.Name = "rtc-" + p.rat() + "-" + scheme
	sc.Flows[0].Media = true
	return sc
}

// SFUSubscribers is the fan-out width of the sfu scenario family: the
// many-users scale axis.
const SFUSubscribers = 32

// SFUScenario fans one simulcast ingest out to SFUSubscribers UEs spread
// across both LTE and NR cells (Params.Cells selects cells per RAT,
// default 2). The first subscriber runs the scheme under test and sits on
// the RAT the rat axis names; the rest run the GCC baseline, alternating
// between the LTE and NR cell sets with a spread of signal strengths and
// server RTTs.
func SFUScenario(scheme string, p Params) *Scenario {
	cellsPerRAT := p.cellCount(2)
	sc := &Scenario{
		Name: "sfu-" + p.rat() + "-" + scheme, Seed: 77, Duration: p.dur(4 * time.Second),
		SFU: true,
	}
	for c := 0; c < cellsPerRAT; c++ {
		sc.Cells = append(sc.Cells, CellSpec{ID: 1 + c, NPRB: 100, Control: controlFor(p)})
		sc.NRCells = append(sc.NRCells, NRCellSpec{ID: 101 + c, Mu: 1, BandwidthMHz: 100, Control: controlFor(p)})
	}
	for i := 0; i < SFUSubscribers; i++ {
		onNR := i%2 == 1
		if i == 0 {
			onNR = p.rat() == RATNR
		}
		ue := UESpec{ID: i + 1, RNTI: uint16(61 + i), RSSI: p.rssi(-85 - float64(i%6)*3)}
		if onNR {
			ue.NRCellIDs = []int{101 + i%cellsPerRAT}
		} else {
			ue.CellIDs = []int{1 + i%cellsPerRAT}
		}
		sc.UEs = append(sc.UEs, ue)
		legScheme := "gcc"
		if i == 0 {
			legScheme = scheme
		}
		sc.Flows = append(sc.Flows, FlowSpec{
			ID: i + 1, UE: i + 1, Scheme: legScheme, Start: 0,
			RTTBase: time.Duration(30+10*(i%4)) * time.Millisecond,
			SFULeg:  true,
		})
	}
	return p.apply(sc)
}
