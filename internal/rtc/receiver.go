package rtc

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/netsim"
	"pbecc/internal/sim"
)

// Receiver is the media endpoint on the mobile side: the bulk transport's
// receiver (per-packet acknowledgements with timestamp echo and optional
// congestion feedback) composed with a jitter buffer that turns the
// packet stream back into an ordered frame stream. A simulcast receiver
// (the SFU's ingest side) keeps one jitter buffer per ladder layer, since
// the layers share capture sequence numbers but are independent streams.
type Receiver struct {
	tr  *cc.Receiver
	jbs []*JitterBuffer

	// JB is the single-stream jitter buffer (layer 0 under simulcast):
	// its Stats are the flow's frame metrics.
	JB *JitterBuffer

	// OnFrame, when set, observes every released frame of every layer
	// with its capture-to-release delay.
	OnFrame func(f Frame, delay time.Duration)

	// OnData, when set, observes every received data packet with its
	// one-way delay (after the jitter buffer has consumed it).
	OnData func(now time.Duration, p *netsim.Packet, owd time.Duration)
}

// NewReceiver wires a media receiver whose ACKs travel through ackPath.
func NewReceiver(eng *sim.Engine, flowID int, ackPath netsim.Handler, spec MediaSpec) *Receiver {
	r := &Receiver{tr: cc.NewReceiver(eng, flowID, ackPath)}
	buffers := 1
	if spec.Simulcast {
		buffers = len(DefaultLadder)
	}
	for i := 0; i < buffers; i++ {
		jb := NewJitterBuffer(eng)
		jb.OnFrame = func(f Frame, delay time.Duration) {
			if r.OnFrame != nil {
				r.OnFrame(f, delay)
			}
		}
		r.jbs = append(r.jbs, jb)
	}
	r.JB = r.jbs[0]
	r.tr.OnData = func(now time.Duration, p *netsim.Packet, owd time.Duration) {
		jb := r.jbs[0] // a single-stream flow may switch layers over time
		if spec.Simulcast {
			if l := int(p.Media.Layer); l >= 0 && l < len(r.jbs) {
				jb = r.jbs[l]
			}
		}
		jb.Add(now, p)
		if r.OnData != nil {
			r.OnData(now, p, owd)
		}
	}
	return r
}

// Transport exposes the underlying cc.Receiver (to attach a feedback
// source such as the PBE client or the GCC REMB estimator).
func (r *Receiver) Transport() *cc.Receiver { return r.tr }

// Stats exposes the frame metrics of the single-stream jitter buffer.
func (r *Receiver) Stats() *FrameStats { return r.JB.Stats() }

// EnableSeries downsamples every layer's frame delay and freeze onsets
// into the run's series under flow tid (layers share the tracks).
func (r *Receiver) EnableSeries(tid int) {
	for _, jb := range r.jbs {
		jb.EnableSeries(tid)
	}
}

// HandlePacket implements netsim.Handler for packets released by the UE.
func (r *Receiver) HandlePacket(now time.Duration, p *netsim.Packet) {
	r.tr.HandlePacket(now, p)
}
