package phy

import "math"

// The paper models transport-block errors with independent, identically
// distributed bit errors: a TB of L bits decodes incorrectly with
// probability 1-(1-p)^L, where p is the bit error rate. Figure 6(b) fits
// p between 1e-6 and 5e-6 depending on signal strength (-98 dBm and
// -113 dBm locations).

// berAnchor is a (RSSI dBm, BER) calibration point.
type berAnchor struct {
	rssi float64
	ber  float64
}

// berAnchors are taken directly from the labels of Figure 6: strong signal
// approaches the 1e-6 floor, the -98 dBm location sits near 2.5e-6, and the
// -113 dBm location near 5e-6. Interpolation is linear in p between anchors
// and clamped outside.
var berAnchors = []berAnchor{
	{-85, 1e-6},
	{-98, 2.5e-6},
	{-113, 5e-6},
}

// BERFromRSSI returns the fitted bit error rate for a given received signal
// strength in dBm.
func BERFromRSSI(rssiDBm float64) float64 {
	a := berAnchors
	if rssiDBm >= a[0].rssi {
		return a[0].ber
	}
	if rssiDBm <= a[len(a)-1].rssi {
		return a[len(a)-1].ber
	}
	for i := 1; i < len(a); i++ {
		if rssiDBm > a[i].rssi {
			frac := (a[i-1].rssi - rssiDBm) / (a[i-1].rssi - a[i].rssi)
			return a[i-1].ber + frac*(a[i].ber-a[i-1].ber)
		}
	}
	return a[len(a)-1].ber
}

// TBErrorRate returns the probability that a transport block of sizeBits
// bits is received in error, 1-(1-p)^L, computed in log space for numerical
// stability at small p and large L.
func TBErrorRate(ber float64, sizeBits int) float64 {
	return tbErrorRate(ber, math.Log1p(-ber), sizeBits)
}

// tbErrorRate is TBErrorRate with log1p(-ber) supplied by the caller, so
// a solver trying many sizes at one BER takes the logarithm once.
func tbErrorRate(ber, log1pNegBER float64, sizeBits int) float64 {
	if sizeBits <= 0 || ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return -math.Expm1(float64(sizeBits) * log1pNegBER)
}

// ProtocolOverhead is the fraction of physical-layer capacity consumed by
// constant protocol headers (PDCP/RLC/MAC), measured by the paper as 6.8%.
const ProtocolOverhead = 0.068

// TransportFromPhysical solves the paper's Eqn. 5 for the transport-layer
// goodput C_t given a physical-layer capacity C_p (both in bits per
// subframe) and the bit error rate p:
//
//	C_p = C_t + C_t*(1-(1-p)^L) + gamma*C_p,  L = C_t (bits in one subframe)
//
// The equation is solved by bisection on C_t in [0, C_p]. The error rate
// depends on C_t only through its integer bit count, which stops changing
// once the bracket is narrower than a bit, so each count's rate is
// computed once (and the logarithm once per call): the result is
// bit-identical to evaluating TBErrorRate at every step.
func TransportFromPhysical(cp float64, ber float64) float64 {
	if cp <= 0 {
		return 0
	}
	budget := cp * (1 - ProtocolOverhead)
	logq := math.Log1p(-ber)
	lastBits, lastRate := -1, 0.0
	lo, hi := 0.0, budget
	for i := 0; i < 60 && hi-lo > 1e-9*budget; i++ {
		ct := (lo + hi) / 2
		if bits := int(ct); bits != lastBits {
			lastBits, lastRate = bits, tbErrorRate(ber, logq, bits)
		}
		need := ct * (1 + lastRate)
		if need > budget {
			hi = ct
		} else {
			lo = ct
		}
	}
	return (lo + hi) / 2
}

// TransportFromPhysicalCBG solves Eqn 5 for a 5G NR cell, where HARQ
// retransmits fixed-size code-block groups rather than whole transport
// blocks: the per-group error probability is constant, so
// C_p = C_t*(1+p_cbg) + gamma*C_p has a closed form. Using the paper's
// whole-TB form on NR would grossly overestimate retransmission overhead,
// since NR transport blocks reach hundreds of kilobits per subframe.
func TransportFromPhysicalCBG(cp, ber float64, cbgBits int) float64 {
	if cp <= 0 {
		return 0
	}
	return cp * (1 - ProtocolOverhead) / (1 + TBErrorRate(ber, cbgBits))
}

// PhysicalFromTransport computes the physical capacity needed to carry a
// transport goodput C_t at bit error rate p (the forward direction of
// Eqn. 5). It is the exact inverse of TransportFromPhysical.
func PhysicalFromTransport(ct float64, ber float64) float64 {
	if ct <= 0 {
		return 0
	}
	return ct * (1 + TBErrorRate(ber, int(ct))) / (1 - ProtocolOverhead)
}

// TranslationTable precomputes the Eqn. 5 transformation on a capacity grid,
// mirroring the lookup table the paper uses to avoid solving the equation on
// the datapath. Lookups interpolate linearly between grid points.
type TranslationTable struct {
	ber  float64
	step float64
	ct   []float64 // ct[i] = TransportFromPhysical(i*step, ber)
}

// NewTranslationTable builds a table for capacities up to maxBitsPerSubframe
// with the given grid step (both in bits per subframe).
func NewTranslationTable(ber, maxBitsPerSubframe, step float64) *TranslationTable {
	if step <= 0 {
		step = 1000
	}
	n := int(maxBitsPerSubframe/step) + 2
	t := &TranslationTable{ber: ber, step: step, ct: make([]float64, n)}
	for i := range t.ct {
		t.ct[i] = TransportFromPhysical(float64(i)*step, ber)
	}
	return t
}

// BER returns the bit error rate the table was built for.
func (t *TranslationTable) BER() float64 { return t.ber }

// Transport looks up the transport goodput for a physical capacity cp in
// bits per subframe, interpolating between grid points and falling back to
// direct solving beyond the grid.
func (t *TranslationTable) Transport(cp float64) float64 {
	if cp <= 0 {
		return 0
	}
	pos := cp / t.step
	i := int(pos)
	if i+1 >= len(t.ct) {
		return TransportFromPhysical(cp, t.ber)
	}
	frac := pos - float64(i)
	return t.ct[i] + frac*(t.ct[i+1]-t.ct[i])
}
