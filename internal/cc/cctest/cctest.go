// Package cctest provides a shared single-bottleneck test harness for
// congestion-control algorithms: a sender drives the controller under
// test through a fixed-rate link with a drop-tail queue and symmetric
// propagation delay, and the harness reports goodput and one-way delay
// statistics. The deterministic engine makes assertion bounds stable.
package cctest

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/netsim"
	"pbecc/internal/sim"
	"pbecc/internal/stats"
)

// Result summarizes one harness run.
type Result struct {
	ThroughputMbps float64 // receiver goodput over the second half of the run
	AvgOWDms       float64 // mean one-way delay, ms
	P95OWDms       float64 // 95th-percentile one-way delay, ms
	Lost           uint64
	Received       uint64
}

// Run drives ctrl over a single bottleneck of rateBps with the given
// round-trip propagation delay and queue, for dur of virtual time.
// Statistics exclude the first half of the run (startup transient).
func Run(seed int64, ctrl cc.Controller, rateBps float64, rtt time.Duration, queueBytes int, dur time.Duration) Result {
	eng := sim.New(seed)
	var snd *cc.Sender
	ackLink := netsim.NewLink(eng, 0, rtt/2, 0, netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
		snd.HandlePacket(now, p)
	}))
	rcv := cc.NewReceiver(eng, 1, ackLink)

	delays := &stats.DurationSeries{}
	bytesAfter := 0
	half := dur / 2
	rcv.OnData = func(now time.Duration, p *netsim.Packet, owd time.Duration) {
		if now >= half {
			delays.AddDuration(owd)
			bytesAfter += p.Size
		}
	}
	fwd := netsim.NewLink(eng, rateBps, rtt/2, queueBytes, rcv)
	snd = cc.NewSender(eng, 1, fwd, ctrl)
	snd.Start()
	eng.RunUntil(dur)

	return Result{
		ThroughputMbps: float64(bytesAfter) * 8 / (dur - half).Seconds() / 1e6,
		AvgOWDms:       delays.Mean(),
		P95OWDms:       delays.Percentile(95),
		Lost:           snd.LostPackets,
		Received:       rcv.Received,
	}
}
