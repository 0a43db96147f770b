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

func (c *provisionedController) OnSent(now time.Duration, seq uint64, infl int) {}
func (c *provisionedController) OnAck(s cc.AckSample)                           {}
func (c *provisionedController) OnLoss(l cc.LossSample)                         {}
func (c *provisionedController) PacingRate() float64                            { return c.rate }
func (c *provisionedController) CWND() int                                      { return 1 << 30 }

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

// RTCScenario is the interactive-call family: the steady-state topology
// carrying a frame-level adaptive video stream instead of a bulk
// download, measured on frame-level QoE (p50/p95 frame delay, freeze
// time, frames past deadline). Supports both RATs and the Cells and
// CapacityNoise axes, like steady.
func RTCScenario(scheme string, p Params) *Scenario {
	sc := SteadyScenario(scheme, p)
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
		Seed: 77, Duration: p.dur(4 * time.Second),
		SFU: true,
	}
	for c := 0; c < cellsPerRAT; c++ {
		sc.Cells = append(sc.Cells, CellSpec{ID: 1 + c, Control: controlFor(p)})
		sc.NRCells = append(sc.NRCells, NRCellSpec{ID: nrCellID(cellsPerRAT, c), Mu: 1, BandwidthMHz: 100, Control: controlFor(p)})
	}
	for i := 0; i < SFUSubscribers; i++ {
		onNR := i%2 == 1
		if i == 0 {
			onNR = p.rat() == RATNR
		}
		ue := UESpec{ID: i + 1, RNTI: uint16(61 + i), RSSI: p.rssi(-85 - float64(i%6)*3)}
		if onNR {
			ue.NRCellIDs = []int{nrCellID(cellsPerRAT, i%cellsPerRAT)}
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
