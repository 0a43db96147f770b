// Package cc defines the congestion-control framework shared by all ten
// schemes - PBE-CC, the seven baselines the paper compares against, GCC
// and the pbertc hybrid: the Controller interface, per-ACK samples with
// BBR-style delivery-rate estimation, a paced, window-limited UDP-like
// Sender, a Receiver that echoes timestamps and attaches PBE-CC feedback,
// and the windowed min/max filters BBR-family algorithms rely on.
package cc

import "time"

// AckSample is everything a controller learns from one acknowledgement.
type AckSample struct {
	Now        time.Duration
	Seq        uint64
	AckedBytes int
	RTT        time.Duration
	SRTT       time.Duration

	// DeliveryRate is the BBR-style delivery-rate sample for the acked
	// packet, in bits per second (0 when not yet measurable).
	DeliveryRate float64
	// AppLimited marks samples taken while the sender was not limited by
	// the congestion controller; rate filters should not treat them as
	// evidence of reduced capacity.
	AppLimited bool

	InflightBytes int // bytes still in flight after this ACK

	// PBE-CC receiver feedback (zero for other schemes).
	FeedbackRate       float64 // target transport rate, bits/sec
	InternetBottleneck bool
}

// LossSample describes one packet declared lost.
type LossSample struct {
	Now           time.Duration
	Seq           uint64
	InflightBytes int
}

// Controller is a congestion-control algorithm. The sender consults
// PacingRate and CWND before each transmission; either may be the binding
// constraint (rate-based algorithms return a generous CWND, window-based
// ones return 0 for an unpaced flow).
type Controller interface {
	// Name returns the scheme's short name (used in reports).
	Name() string
	// OnSent is called when a data packet enters the network.
	OnSent(now time.Duration, seq uint64, bytes, inflightBytes int)
	// OnAck is called per acknowledgement.
	OnAck(s AckSample)
	// OnLoss is called per lost packet.
	OnLoss(l LossSample)
	// PacingRate returns the target pacing rate in bits/sec (0 = unpaced).
	PacingRate() float64
	// CWND returns the congestion window in bytes.
	CWND() int
}

// InitialCwnd is the conventional 10-segment initial window in bytes.
const InitialCwnd = 10 * 1500

// MinCwnd is the floor congestion window (4 segments).
const MinCwnd = 4 * 1500

// BDPBytes converts a rate (bits/sec) and an RTT into a byte window.
func BDPBytes(rateBps float64, rtt time.Duration) int {
	if rateBps <= 0 || rtt <= 0 {
		return 0
	}
	return int(rateBps * rtt.Seconds() / 8)
}
