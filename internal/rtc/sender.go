package rtc

import (
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/netsim"
	"pbecc/internal/obs"
	"pbecc/internal/sim"
)

// Media metrics, aggregated over every media sender and SFU leg.
var (
	mFramesSent = obs.NewCounter("rtc.frames_sent")
	mFramesShed = obs.NewCounter("rtc.frames_shed")
	mPadding    = obs.NewCounter("rtc.padding_packets")
)

// Frame-shed series (40 ms windows; tid = flow ID): one sample per frame
// shed past maxQueueDelay, so a window's Count is its shed volume.
var seriesShed = obs.Series("rtc.shed")

// Sender is the media transport: it packetizes queued frames into
// MSS-sized packets carrying frame metadata and ships them through a
// cc.Sender, so pacing, windowing, RTT estimation and loss detection are
// exactly the bulk transport's — only the payload source differs. Frames
// that have waited past maxQueueDelay since capture are dropped — even
// mid-transmission — because an RTC sender sheds load instead of
// building latency and a past-deadline frame is useless to the decoder.
// When the frame queue is empty the pacer emits padding packets at the
// controller's rate (WebRTC's bandwidth-probing behavior): without them
// a delay-based estimator serving an application-limited source would
// never see enough traffic to raise its estimate, and an SFU subscriber
// could never earn a higher simulcast layer.
type Sender struct {
	eng  *sim.Engine
	snd  *cc.Sender
	pool *netsim.PacketPool

	// frames is the pacer queue, oldest first, and pkts the queued
	// frames' untransmitted packets in the same order: the front frame's
	// first. Both rings come from the engine's stock (frameKey, pktKey),
	// so a sender built on a recycled engine starts with the rings its
	// predecessor grew.
	frames sim.Ring[queuedFrame]
	pkts   sim.Ring[*netsim.Packet]

	deliveryMax cc.WindowedMax

	// sShed is the flow's frame-shed series track, cached in Start (nil
	// when the run records no series; Sample on nil is one branch).
	sShed *obs.SeriesTrack

	// FramesDropped counts frames shed in-queue past maxQueueDelay.
	FramesDropped uint64
}

type queuedFrame struct {
	capturedAt time.Duration
	left       int // the frame's packets still in pkts
}

// frameKey and pktKey are the engine-local stocks of frame and packet
// rings.
var frameKey, pktKey = sim.NewLocalKey(), sim.NewLocalKey()

// NewSender wires a media sender for flowID transmitting into out under
// ctrl. Call Start, then QueueFrame (typically as an Encoder's sink). The
// sender ships whatever frames it is handed, so it reads nothing of the
// stream's spec.
func NewSender(eng *sim.Engine, flowID int, out netsim.Handler, ctrl cc.Controller, _ MediaSpec) *Sender {
	s := &Sender{eng: eng, pool: netsim.PoolOf(eng)}
	s.frames.FromStock(eng, frameKey)
	s.pkts.FromStock(eng, pktKey)
	s.snd = cc.NewSender(eng, flowID, out, ctrl)
	s.snd.Source = s.next
	s.snd.AppLimited = true
	s.deliveryMax.Window = 2 * time.Second
	s.deliveryMax.TakeRing(eng)
	s.snd.OnAckHook = func(a cc.AckSample) {
		if a.DeliveryRate > 0 && !a.AppLimited {
			s.deliveryMax.Update(a.Now, a.DeliveryRate)
		}
	}
	return s
}

// AvailableRate is the transport rate the encoder (or an SFU layer
// selector) may target: the controller's pacing rate when it paces, else
// the windowed-max delivery rate — window-based schemes like CUBIC
// express capacity through deliveries, not a rate.
func (s *Sender) AvailableRate() float64 {
	if r := s.snd.Controller().PacingRate(); r > 0 {
		return r
	}
	return s.deliveryMax.Get()
}

// Transport exposes the underlying cc.Sender (ACKs are delivered to it;
// counters and SRTT live there).
func (s *Sender) Transport() *cc.Sender { return s.snd }

// Start begins transmission and loss detection.
func (s *Sender) Start() {
	s.sShed = s.eng.SeriesBuffer().Track(seriesShed, s.snd.FlowID)
	s.snd.Start()
}

// Stop halts transmission.
func (s *Sender) Stop() { s.snd.Stop() }

// HandlePacket feeds acknowledgements through to the transport.
func (s *Sender) HandlePacket(now time.Duration, p *netsim.Packet) {
	s.snd.HandlePacket(now, p)
}

// QueueFrame packetizes one frame onto the pacer queue. A frame with no
// bytes is dropped: nothing of it would reach the wire.
func (s *Sender) QueueFrame(f Frame) {
	if f.Bytes <= 0 {
		return
	}
	qf := queuedFrame{capturedAt: f.CapturedAt}
	for off := 0; off < f.Bytes; off += netsim.MSS {
		size := netsim.MSS
		if f.Bytes-off < size {
			size = f.Bytes - off
		}
		p := s.pool.Get()
		p.Size = size
		p.Media = netsim.MediaInfo{
			FrameSeq:   f.Seq,
			FrameBytes: f.Bytes,
			Offset:     off,
			Layer:      int8(f.Layer),
			Keyframe:   f.Keyframe,
			CapturedAt: f.CapturedAt,
		}
		s.pkts.PushBack(p)
		qf.left++
	}
	s.frames.PushBack(qf)
	s.snd.Pump()
}

// next implements the cc.Sender source: the pacer pulls the next packet,
// shedding frames that have already waited past maxQueueDelay and
// falling back to padding when no frame is queued.
func (s *Sender) next(now time.Duration) *netsim.Packet {
	for s.frames.Len() > 0 {
		head := s.frames.Front()
		if now-head.capturedAt > maxQueueDelay {
			s.FramesDropped++
			mFramesShed.Inc()
			s.sShed.Sample(now, 1)
			// The untransmitted remainder never reaches the wire, so the
			// pacer is its last owner and releases it here.
			for ; head.left > 0; head.left-- {
				s.pool.Release(s.pkts.PopFront())
			}
			s.frames.PopFront()
			continue
		}
		p := s.pkts.PopFront()
		if head.left--; head.left == 0 {
			mFramesSent.Inc()
			s.frames.PopFront()
		}
		// Delivery-rate samples reflect network capacity only while more
		// data is backlogged behind this packet.
		s.snd.AppLimited = s.frames.Len() == 0
		return p
	}
	// Padding probe: sent at the controller's full pacing rate, so the
	// receiver-side estimator keeps measuring the path even when the
	// encoder uses less than the transport offers.
	mPadding.Inc()
	s.snd.AppLimited = false
	p := s.pool.Get()
	p.Size = netsim.MSS
	p.Padding = true
	return p
}
