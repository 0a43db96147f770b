package cc

import (
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/sim"
)

// AckBytes is the size of an acknowledgement packet on the wire.
const AckBytes = 60

// FeedbackSource supplies the receiver-side congestion feedback PBE-CC
// carries in every ACK: the capacity-derived target rate and the
// bottleneck-state bit (§5). Schemes without receiver feedback use a nil
// source.
type FeedbackSource interface {
	Feedback(now time.Duration, owd time.Duration, dataBytes int) (rateBps float64, internetBottleneck bool)
}

// Receiver acknowledges every data packet with its sequence number and
// receive timestamp, attaching feedback when a source is configured.
type Receiver struct {
	eng      *sim.Engine
	FlowID   int
	ackPath  netsim.Handler
	Feedback FeedbackSource
	pool     *netsim.PacketPool

	// OnData observes every received data packet with its one-way delay
	// (used by experiment instrumentation).
	OnData func(now time.Duration, p *netsim.Packet, owd time.Duration)

	// Received counts data packets received.
	Received uint64
}

// NewReceiver wires a receiver whose ACKs travel through ackPath back to
// the sender.
func NewReceiver(eng *sim.Engine, flowID int, ackPath netsim.Handler) *Receiver {
	return &Receiver{eng: eng, FlowID: flowID, ackPath: ackPath, pool: netsim.PoolOf(eng)}
}

// HandlePacket implements netsim.Handler for data packets released by the
// UE.
func (r *Receiver) HandlePacket(now time.Duration, p *netsim.Packet) {
	if p.IsAck || p.FlowID != r.FlowID {
		return
	}
	r.Received++
	owd := now - p.SentAt
	if r.OnData != nil {
		r.OnData(now, p, owd)
	}
	ack := r.pool.Get()
	ack.FlowID = r.FlowID
	ack.Seq = p.Seq
	ack.Size = AckBytes
	ack.SentAt = now
	ack.IsAck = true
	ack.Ack = netsim.AckInfo{AckSeq: p.Seq}
	if r.Feedback != nil {
		rate, btl := r.Feedback.Feedback(now, owd, p.Size)
		ack.Ack.FeedbackRate = rate
		ack.Ack.InternetBottleneck = btl
	}
	// The receiver consumes the data packet: OnData observers have
	// returned and the jitter-buffer path copies what it keeps, so this
	// is the release point for the downstream data path.
	r.pool.Release(p)
	r.ackPath.HandlePacket(now, ack)
}
