package netsim

import (
	"time"

	"pbecc/internal/obs"
	"pbecc/internal/sim"
)

// Link metrics, aggregated over every link in the process: delivery and
// drop volume plus queue-occupancy distribution and high watermark.
var (
	mDelivered  = obs.NewCounter("netsim.packets_delivered")
	mDropped    = obs.NewCounter("netsim.packets_dropped")
	mQueueBytes = obs.NewHistogram("netsim.queue_bytes")
	mQueueMax   = obs.NewWatermark("netsim.queue_bytes_max")
)

// Per-link queue-depth series (40 ms windows, kB; tid = the measured
// flow's ID): sampled at every enqueue and dequeue of the instrumented
// bottleneck link, opt-in through EnableQueueSeries.
var seriesQueue = obs.Series("net.queue")

// Link is a fixed-rate, fixed-propagation-delay link with a drop-tail
// queue, the standard model for an Internet bottleneck. A zero RateBps
// means infinite rate (pure delay); a zero QueueBytes means an unbounded
// queue.
type Link struct {
	eng *sim.Engine

	RateBps    float64       // serialization rate in bits/sec (0 = infinite)
	Delay      time.Duration // one-way propagation delay
	QueueBytes int           // drop-tail queue capacity (0 = unbounded)

	dst Handler

	// Cross-shard wiring (nil for an ordinary link): the queue and
	// serialization run on xsrc's engine and the propagation hop carries
	// the packet into xdst's shard through the cluster mailbox.
	xsrc, xdst *sim.Shard

	// Drop-tail queue.
	queue       sim.Ring[*Packet]
	queuedBytes int
	busy        bool

	// Serialization and propagation state: exactly one packet serializes
	// at a time (txPkt, with the pre-bound txDone), and same-shard
	// propagation - a constant delay, so FIFO - rides a sim.Line, which
	// keeps one heap entry per link instead of one per packet in flight.
	txPkt  *Packet
	txDone func()
	line   *sim.Line[*Packet]
	pool   *PacketPool // src-engine pool: owns queue-full drops

	Drops uint64 // packets the full queue dropped

	// queueTrack, when non-nil, downsamples the queue depth into the
	// run's series (EnableQueueSeries); nil costs one branch per sample.
	queueTrack *obs.SeriesTrack
}

// queueKey and lineKey are the engine-local stocks of link queue and
// propagation-line storage: a link built on a recycled engine starts with
// the backing arrays a link of the previous run grew.
var queueKey, lineKey = sim.NewLocalKey(), sim.NewLocalKey()

// NewLink returns a link that delivers packets to dst.
func NewLink(eng *sim.Engine, rateBps float64, delay time.Duration, queueBytes int, dst Handler) *Link {
	l := &Link{eng: eng, RateBps: rateBps, Delay: delay, QueueBytes: queueBytes, dst: dst}
	l.pool = PoolOf(eng)
	l.queue.FromStock(eng, queueKey)
	l.txDone = func() {
		p := l.txPkt
		l.txPkt = nil
		mDelivered.Inc()
		l.propagate(p)
		l.transmitNext()
	}
	l.line = sim.NewLine(eng, lineKey, func(p *Packet) { l.dst.HandlePacket(l.eng.Now(), p) })
	return l
}

// NewCrossLink returns a link whose endpoints live on different shards of
// one cluster: the drop-tail queue and serialization run on src's engine
// and the propagation hop crosses into dst's shard. Wired links are the
// only legal shard boundary, and the link's propagation delay is what it
// contributes as lookahead: the constructor declares it on the cluster,
// so the synchronization window can never exceed the fastest boundary
// crossing. A same-shard pair degenerates to an ordinary link.
func NewCrossLink(src, dst *sim.Shard, rateBps float64, delay time.Duration, queueBytes int, h Handler) *Link {
	if src == nil || dst == nil {
		panic("netsim: cross link needs both shards")
	}
	if src == dst {
		return NewLink(src.Engine, rateBps, delay, queueBytes, h)
	}
	if delay <= 0 {
		panic("netsim: a cross-shard link needs positive propagation delay (its lookahead)")
	}
	l := NewLink(src.Engine, rateBps, delay, queueBytes, h)
	l.xsrc, l.xdst = src, dst
	src.Cluster().DeclareLookahead(delay)
	return l
}

// propagate carries a transmitted packet over the propagation delay to
// the destination handler, crossing the shard boundary when the link is
// a cross link. The cross-shard hop keeps a closure per packet through the
// cluster mailbox: the line is engine-local, and the sending and receiving
// shards' windows run concurrently.
func (l *Link) propagate(p *Packet) {
	if l.xdst != nil {
		dst := l.xdst
		l.xsrc.Send(dst, l.Delay, func() { l.dst.HandlePacket(dst.Now(), p) })
		return
	}
	l.line.Push(l.Delay, p)
}

// EnableQueueSeries marks this link as the measured bottleneck of flow
// tid: its drop-tail queue depth is downsampled into the run's "net.queue"
// series. A no-op when the run records no series.
func (l *Link) EnableQueueSeries(tid int) {
	if sb := l.eng.SeriesBuffer(); sb != nil {
		l.queueTrack = sb.Track(seriesQueue, tid)
	}
}

// HandlePacket lets links be chained after other links or radios.
func (l *Link) HandlePacket(now time.Duration, p *Packet) { l.Send(p) }

// Send enqueues a packet for transmission, dropping it if the queue is
// full.
func (l *Link) Send(p *Packet) {
	if l.RateBps <= 0 {
		// Pure-delay link: no queueing.
		mDelivered.Inc()
		l.propagate(p)
		return
	}
	if l.QueueBytes > 0 && l.queuedBytes+p.Size > l.QueueBytes {
		l.Drops++
		mDropped.Inc()
		l.pool.Release(p) // drop-tail: the link is the packet's last owner
		return
	}
	l.queue.PushBack(p)
	l.queuedBytes += p.Size
	if obs.Enabled() {
		mQueueBytes.Observe(int64(l.queuedBytes))
		mQueueMax.Observe(int64(l.queuedBytes))
	}
	l.queueTrack.Sample(l.eng.Now(), float64(l.queuedBytes)/1e3)
	if !l.busy {
		l.transmitNext()
	}
}

func (l *Link) transmitNext() {
	if l.queue.Len() == 0 {
		l.busy = false
		return
	}
	l.busy = true
	p := l.queue.PopFront()
	l.queuedBytes -= p.Size
	l.queueTrack.Sample(l.eng.Now(), float64(l.queuedBytes)/1e3)

	txTime := time.Duration(float64(p.Size*8) / l.RateBps * float64(time.Second))
	l.txPkt = p
	l.eng.Schedule(txTime, l.txDone)
}

// Sink counts delivered packets and optionally forwards them to a callback,
// for tests and simple receivers. A Sink with Pool set is a terminal
// consumer: it releases each pooled packet after Fn returns, so Fn must
// not retain the packet past the call (hold a PacketHandle instead).
type Sink struct {
	Count uint64
	Bytes uint64
	Pool  *PacketPool
}

// HandlePacket implements Handler.
func (s *Sink) HandlePacket(now time.Duration, p *Packet) {
	s.Count++
	s.Bytes += uint64(p.Size)
	if s.Pool != nil {
		s.Pool.Release(p)
	}
}

// CrossTraffic injects fixed-rate packets into a destination, modeling
// competing load (the controlled competition of §6.3.3 or background flows
// sharing an Internet bottleneck).
type CrossTraffic struct {
	eng     *sim.Engine
	dst     Handler
	rateBps float64
	flowID  int
	seq     uint64
	ticker  *sim.Ticker
}

// NewCrossTraffic returns a stopped cross-traffic source; call Start.
func NewCrossTraffic(eng *sim.Engine, dst Handler, rateBps float64, flowID int) *CrossTraffic {
	return &CrossTraffic{eng: eng, dst: dst, rateBps: rateBps, flowID: flowID}
}

// Start begins emitting MSS-sized packets at the configured rate.
func (c *CrossTraffic) Start() {
	if c.ticker != nil || c.rateBps <= 0 {
		return
	}
	interval := time.Duration(float64(MSS*8) / c.rateBps * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	pool := PoolOf(c.eng)
	c.ticker = c.eng.Every(interval, func() {
		c.seq++
		p := pool.Get()
		p.FlowID = c.flowID
		p.Seq = c.seq
		p.Size = MSS
		p.SentAt = c.eng.Now()
		c.dst.HandlePacket(c.eng.Now(), p)
	})
}

// Stop halts the source; it can be restarted.
func (c *CrossTraffic) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}
