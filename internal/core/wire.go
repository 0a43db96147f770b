package core

import "math"

// The paper's prototype describes the fed-back capacity as "an interval in
// milliseconds between sending two 1500-byte packets" represented as a
// 32-bit integer (§5). This implementation keeps the 32-bit packet-interval
// representation at microsecond resolution so that rates above 12 Mbit/s
// remain representable with sub-percent error.

// feedbackMSS is the reference packet size of the interval encoding.
const feedbackMSS = 1500

// EncodeRate converts a rate in bits/sec into the 32-bit feedback word:
// the interval in microseconds between consecutive 1500-byte packets.
// Zero encodes "no feedback", which is what a rate that is zero, negative
// or NaN encodes to; +Inf encodes to the shortest interval, 1 µs.
func EncodeRate(bps float64) uint32 {
	switch {
	case !(bps > 0):
		return 0
	case math.IsInf(bps, 1):
		return 1
	}
	us := math.Round(feedbackMSS * 8 / bps * 1e6)
	if us < 1 {
		us = 1
	}
	if us > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(us)
}

// DecodeRate converts a feedback word back into bits/sec.
func DecodeRate(w uint32) float64 {
	if w == 0 {
		return 0
	}
	return feedbackMSS * 8 / (float64(w) / 1e6)
}

// QuantizeRate round-trips a rate through the wire representation,
// yielding exactly the value the sender will decode.
func QuantizeRate(bps float64) float64 { return DecodeRate(EncodeRate(bps)) }
