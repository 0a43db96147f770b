// Package netsim models the wired part of an end-to-end path on the
// discrete-event engine: links with finite rate, propagation delay and
// drop-tail queues, plus simple traffic sources and sinks. The cellular
// last hop is modeled separately by package lte; netsim carries packets
// between content servers and cell towers and carries acknowledgements
// back.
package netsim

import "time"

// MSS is the maximum segment size used by all senders, matching the
// 1500-byte packets of the paper's prototype.
const MSS = 1500

// Packet is one simulated datagram. Data packets flow server->mobile;
// acknowledgement packets carry receiver state back, including PBE-CC's
// capacity feedback.
type Packet struct {
	FlowID int
	Seq    uint64
	Size   int // bytes on the wire

	SentAt time.Duration // sender transmit timestamp (virtual time)

	IsAck bool
	Ack   AckInfo

	// Padding marks bandwidth-probe filler from media senders: it is
	// paced, carried and acknowledged like data but contains no frame
	// payload, so goodput accounting skips it.
	Padding bool

	// Media carries frame-level metadata for real-time media flows
	// (zero-valued for bulk flows): which encoded frame the packet
	// belongs to, the frame's total size for receiver-side reassembly,
	// and the capture timestamp for deadline metrics.
	Media MediaInfo

	// Pool bookkeeping (see pool.go). pool is the free list the packet
	// returns to on release, nil for packets allocated outside a pool
	// (their release is a no-op and the GC owns them). gen increments at
	// every release, invalidating outstanding PacketHandles; pooled
	// marks a packet currently sitting in a free list, making a double
	// release detectable.
	pool   *PacketPool
	gen    uint64
	pooled bool
}

// MediaInfo is the RTP-like per-packet media metadata. A packet is a media
// packet when FrameBytes is positive.
type MediaInfo struct {
	FrameSeq   uint64        // capture-tick index, shared across simulcast layers
	FrameBytes int           // total bytes of the frame (for reassembly)
	Offset     int           // byte offset of this packet within the frame
	Layer      int8          // simulcast rate-ladder layer index
	Keyframe   bool          // frame is a GoP-opening keyframe
	CapturedAt time.Duration // when the encoder produced the frame
}

// AckInfo is the acknowledgement payload: which data packet is being
// acknowledged and the PBE-CC feedback fields (§5: the capacity is
// described as an interval between 1500-byte packets; here it is carried
// in bits per second, plus the one-bit bottleneck state).
type AckInfo struct {
	AckSeq uint64 // sequence of the data packet being acked

	// PBE-CC feedback (zero for other schemes).
	FeedbackRate       float64 // target transport-layer rate, bits/sec; 0 = none
	InternetBottleneck bool    // receiver-detected bottleneck state bit
}

// Handler consumes packets delivered by a link or radio.
type Handler interface {
	HandlePacket(now time.Duration, p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(now time.Duration, p *Packet)

// HandlePacket calls f.
func (f HandlerFunc) HandlePacket(now time.Duration, p *Packet) { f(now, p) }
