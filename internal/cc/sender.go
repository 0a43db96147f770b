package cc

import (
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/obs"
	"pbecc/internal/sim"
)

// Transport metrics, aggregated across flows and schemes. A "rate
// decision" is any ACK or loss event after which the controller's pacing
// rate or window actually changed.
var (
	mAcks          = obs.NewCounter("cc.acks")
	mLosses        = obs.NewCounter("cc.losses")
	mRateDecisions = obs.NewCounter("cc.rate_decisions")
	mPacingKbps    = obs.NewHistogram("cc.pacing_rate_kbps")
)

// Per-flow virtual-time series (40 ms windows; tid = flow ID): the
// controller's pacing-rate and cwnd decisions, and acked volume per
// window (bits per sample, so a window's Sum/40ms is the achieved
// delivery rate - the trajectory the convergence analytics track, well
// defined even for pure-window schemes whose PacingRate is 0).
var (
	seriesRate    = obs.Series("cc.rate")
	seriesCwnd    = obs.Series("cc.cwnd")
	seriesAckBits = obs.Series("cc.ack_bits")
)

// Sender is a full-buffer, UDP-based data sender driven by a Controller,
// the shape of the paper's user-space prototype: it paces packets at the
// controller's rate, respects the controller's congestion window, samples
// delivery rate per ACK (BBR-style), and declares losses with a
// reordering-tolerant time threshold that accounts for cellular HARQ
// delays (§3: up to three retransmissions of eight milliseconds).
type Sender struct {
	eng    *sim.Engine
	FlowID int
	out    netsim.Handler
	ctrl   Controller

	// Sent-packet window: sequence seq of [base, nextSeq] sits at
	// ring.At(seq-base), so an ACK is looked up by index arithmetic and
	// walking from the front visits packets in send order. The front is
	// popped once it is resolved (acked or lost). Between events base is
	// the oldest unresolved sequence, nextSeq+1 when there is none.
	nextSeq       uint64
	base          uint64
	ring          sim.Ring[sentPkt]
	inflightBytes int
	pool          *netsim.PacketPool

	delivered   uint64 // total bytes acked
	deliveredAt time.Duration

	srtt   time.Duration
	rttvar time.Duration

	nextRelease time.Duration
	pumpEv      sim.Event
	pumpFn      func() // bound once so re-pacing allocates no closure
	lossTicker  *sim.Ticker
	running     bool

	// OnAckHook, when set, observes every processed ACK sample (used by
	// experiment instrumentation).
	OnAckHook func(AckSample)

	// Source, when set, supplies the next application packet to transmit
	// (frame-level media from package rtc). Returning nil pauses
	// transmission until Pump is called; when unset, the sender generates
	// MSS-sized full-buffer packets. The sender assigns FlowID, Seq and
	// SentAt; the source provides Size and any media metadata.
	Source func(now time.Duration) *netsim.Packet

	// AppLimited marks packets sent while the application, not the
	// controller, is the binding constraint; their delivery-rate samples
	// must not be read as network capacity. Media sources maintain it.
	AppLimited bool

	// Counters.
	AckedPackets uint64
	LostPackets  uint64

	// Last observed controller decision, for change-triggered metric
	// emission.
	lastRate float64
	lastCwnd int

	// Series tracks, created lazily on the first ACK (nil when the run
	// records no series; Sample on nil is one branch).
	sRate, sCwnd, sAck *obs.SeriesTrack
	seriesInit         bool
}

type sentPkt struct {
	bytes               int
	sentAt              time.Duration
	deliveredAtSend     uint64
	deliveredTimeAtSend time.Duration
	appLimited          bool
	live                bool // sent and neither acked nor declared lost
}

// ringKey is the engine-local stock of sent-packet rings: a sender built
// on a recycled engine starts with the ring a sender of the previous run
// grew.
var ringKey = sim.NewLocalKey()

// lossSweepInterval is how often the in-flight list is scanned for
// timed-out packets.
const lossSweepInterval = 5 * time.Millisecond

// harqReorderAllowance is the extra one-way delay a packet can legally
// accumulate inside the cellular link from HARQ retransmissions (3 x 8 ms)
// plus jitter; the loss detector must not fire earlier.
const harqReorderAllowance = 27 * time.Millisecond

// NewSender wires a sender for flowID that transmits MSS-sized packets
// into out under ctrl's control. Call Start to begin.
func NewSender(eng *sim.Engine, flowID int, out netsim.Handler, ctrl Controller) *Sender {
	s := &Sender{
		eng:    eng,
		FlowID: flowID,
		out:    out,
		ctrl:   ctrl,
		base:   1,
		pool:   netsim.PoolOf(eng),
	}
	s.ring.FromStock(eng, ringKey)
	s.pumpFn = s.pump
	return s
}

// Controller returns the congestion controller driving this sender.
func (s *Sender) Controller() Controller { return s.ctrl }

// Start begins transmission and loss detection.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.lossTicker = s.eng.Every(lossSweepInterval, s.sweepLosses)
	s.pump()
}

// Stop halts transmission; in-flight packets may still be acked.
func (s *Sender) Stop() {
	if !s.running {
		return
	}
	s.running = false
	if s.lossTicker != nil {
		s.lossTicker.Stop()
		s.lossTicker = nil
	}
	s.pumpEv.Cancel()
}

// Pump attempts transmission immediately; media sources call it when new
// frames arrive while the sender is source-starved.
func (s *Sender) Pump() {
	if s.running {
		s.pump()
	}
}

// pump transmits as permitted by the controller's window and pacing rate.
func (s *Sender) pump() {
	if !s.running {
		return
	}
	now := s.eng.Now()
	for {
		cwnd := s.ctrl.CWND()
		if s.inflightBytes+netsim.MSS > cwnd && s.inflightBytes > 0 {
			return // window-limited: an ACK or loss will re-pump
		}
		rate := s.ctrl.PacingRate()
		if rate > 0 && now < s.nextRelease {
			s.schedulePump(s.nextRelease - now)
			return
		}
		sentBytes := s.sendOne(now)
		if sentBytes == 0 {
			return // source-starved: a Pump will restart transmission
		}
		if rate > 0 {
			gap := time.Duration(float64(sentBytes*8) / rate * float64(time.Second))
			if s.nextRelease < now-gap {
				// Idle restart: do not accumulate send credit.
				s.nextRelease = now
			}
			s.nextRelease += gap
		}
	}
}

// schedulePump re-arms the pacing timer in place: at most one pump event
// is ever queued per sender.
func (s *Sender) schedulePump(d time.Duration) {
	s.eng.Reset(&s.pumpEv, d, s.pumpFn)
}

// sendOne transmits the next packet and returns its size in bytes (0 when
// a media source has nothing queued).
func (s *Sender) sendOne(now time.Duration) int {
	var p *netsim.Packet
	if s.Source != nil {
		if p = s.Source(now); p == nil {
			return 0
		}
	} else {
		p = s.pool.Get()
		p.Size = netsim.MSS
	}
	s.nextSeq++
	seq := s.nextSeq
	p.FlowID, p.Seq, p.SentAt = s.FlowID, seq, now
	s.ring.PushBack(sentPkt{
		bytes:               p.Size,
		sentAt:              now,
		deliveredAtSend:     s.delivered,
		deliveredTimeAtSend: s.deliveredAt,
		appLimited:          s.AppLimited,
		live:                true,
	})
	s.inflightBytes += p.Size
	s.ctrl.OnSent(now, seq, s.inflightBytes)
	s.out.HandlePacket(now, p)
	return p.Size
}

// HandlePacket processes acknowledgements arriving from the receiver.
// The sender is the terminal owner of everything delivered to it, so the
// packet is released on every path.
func (s *Sender) HandlePacket(now time.Duration, p *netsim.Packet) {
	defer s.pool.Release(p)
	if !p.IsAck {
		return
	}
	seq := p.Ack.AckSeq
	if seq < s.base || seq > s.nextSeq {
		return // resolved long ago, or never sent
	}
	slot := s.ring.At(int(seq - s.base))
	if !slot.live {
		return // already declared lost or duplicate
	}
	info := *slot
	slot.live = false
	s.inflightBytes -= info.bytes
	s.delivered += uint64(info.bytes)
	s.deliveredAt = now
	s.AckedPackets++

	rtt := now - info.sentAt
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}

	var rate float64
	if dt := now - info.deliveredTimeAtSend; dt > 0 {
		rate = float64(s.delivered-info.deliveredAtSend) * 8 / dt.Seconds()
	}

	sample := AckSample{
		Now:                now,
		Seq:                seq,
		AckedBytes:         info.bytes,
		RTT:                rtt,
		SRTT:               s.srtt,
		DeliveryRate:       rate,
		AppLimited:         info.appLimited,
		InflightBytes:      s.inflightBytes,
		FeedbackRate:       p.Ack.FeedbackRate,
		InternetBottleneck: p.Ack.InternetBottleneck,
	}
	s.ctrl.OnAck(sample)
	mAcks.Inc()
	s.observeDecision()
	s.observeSeries(now, info.bytes)
	if s.OnAckHook != nil {
		s.OnAckHook(sample)
	}
	s.advanceBase()
	s.pump()
}

// observeDecision records the controller's post-event pacing rate and
// window in the metrics registry when either changed: a counter plus a
// rate histogram. Purely observational: it reads the controller, never
// drives it.
func (s *Sender) observeDecision() {
	if !obs.Enabled() {
		return
	}
	rate := s.ctrl.PacingRate()
	cwnd := s.ctrl.CWND()
	if rate == s.lastRate && cwnd == s.lastCwnd {
		return
	}
	mRateDecisions.Inc()
	if rate > 0 {
		mPacingKbps.Observe(int64(rate / 1e3))
	}
	s.lastRate, s.lastCwnd = rate, cwnd
}

// sweepLosses declares packets lost when they have been in flight longer
// than srtt plus variance plus the HARQ reordering allowance.
func (s *Sender) sweepLosses() {
	if s.base > s.nextSeq || s.srtt == 0 {
		return // nothing in flight, or no RTT estimate yet
	}
	now := s.eng.Now()
	slack := 4 * s.rttvar
	if slack < 10*time.Millisecond {
		slack = 10 * time.Millisecond
	}
	threshold := s.srtt + slack + harqReorderAllowance
	for i := 0; i < s.ring.Len(); i++ {
		info := s.ring.At(i)
		if !info.live {
			continue
		}
		if now-info.sentAt <= threshold {
			break // the window holds sequences in send order
		}
		info.live = false
		s.inflightBytes -= info.bytes
		s.LostPackets++
		s.ctrl.OnLoss(LossSample{
			Now:           now,
			Seq:           s.base + uint64(i),
			InflightBytes: s.inflightBytes,
		})
		mLosses.Inc()
	}
	s.observeDecision()
	s.observeSeries(now, 0)
	s.advanceBase()
	s.pump()
}

// observeSeries downsamples the controller's post-event state into the
// flow's series tracks: pacing rate (Mbit/s), cwnd (kB) and - on ACKs -
// the acked volume (bits). Purely observational, independent of the
// trace and metrics switches.
func (s *Sender) observeSeries(now time.Duration, ackedBytes int) {
	if !s.seriesInit {
		s.seriesInit = true
		if sb := s.eng.SeriesBuffer(); sb != nil {
			s.sRate = sb.Track(seriesRate, s.FlowID)
			s.sCwnd = sb.Track(seriesCwnd, s.FlowID)
			s.sAck = sb.Track(seriesAckBits, s.FlowID)
		}
	}
	if s.sRate == nil {
		return
	}
	s.sRate.Sample(now, s.ctrl.PacingRate()/1e6)
	s.sCwnd.Sample(now, float64(s.ctrl.CWND())/1e3)
	if ackedBytes > 0 {
		s.sAck.Sample(now, float64(ackedBytes)*8)
	}
}

// advanceBase moves the window's lower edge past the acked/lost prefix,
// freeing those slots for reuse.
func (s *Sender) advanceBase() {
	for s.ring.Len() > 0 && !s.ring.Front().live {
		s.ring.PopFront()
		s.base++
	}
}
