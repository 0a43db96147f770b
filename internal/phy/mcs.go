// Package phy models the LTE/5G-NR physical layer quantities PBE-CC
// depends on: the SINR → CQI → spectral-efficiency chain that determines the
// wireless physical data rate R_w (bits per PRB), the i.i.d.-bit-error
// transport-block error model of the paper's Figure 6(b), slow fading, and
// RSSI trajectories for mobility experiments.
//
// Calibration follows the paper: a 20 MHz cell has 100 PRBs and the maximum
// achievable physical rate is 1.8 Mbit/s/PRB (two spatial streams of 256-QAM),
// matching Figure 11(b).
package phy

import "math"

// DataREsPerPRB is the number of resource elements per PRB pair (one
// subframe) usable for data after control channel and reference-signal
// overhead: 12 subcarriers x 14 symbols = 168 REs, minus roughly 3 symbols
// of control region and cell reference signals.
const DataREsPerPRB = 120

// cqiEff64 is 3GPP TS 36.213 Table 7.2.3-1 (up to 64-QAM): spectral
// efficiency in bits per resource element, indexed by CQI 1..15.
var cqiEff64 = [16]float64{0,
	0.1523, 0.2344, 0.3770, 0.6016, 0.8770,
	1.1758, 1.4766, 1.9141, 2.4063, 2.7305,
	3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
}

// cqiEff256 is 3GPP TS 36.213 Table 7.2.3-2 (up to 256-QAM).
var cqiEff256 = [16]float64{0,
	0.1523, 0.3770, 0.8770, 1.4766, 1.9141,
	2.4063, 2.7305, 3.3223, 3.9023, 4.5234,
	5.1152, 5.5547, 6.2266, 6.9141, 7.4063,
}

// sinrThresh64 gives the minimum SINR (dB) at which CQI index i (1..15) of
// the 64-QAM table is reported, from standard link-level curves.
var sinrThresh64 = [16]float64{math.Inf(-1),
	-6.7, -4.7, -2.3, 0.2, 2.4,
	4.3, 5.9, 8.1, 10.3, 11.7,
	14.1, 16.3, 18.7, 21.0, 22.7,
}

// sinrThresh256 stretches the thresholds to cover the 256-QAM entries.
var sinrThresh256 = [16]float64{math.Inf(-1),
	-6.7, -2.3, 2.4, 5.9, 8.1,
	10.3, 11.7, 14.1, 16.3, 18.7,
	21.0, 22.7, 24.2, 25.9, 27.5,
}

// CQITable selects which CQI/efficiency table a cell uses.
type CQITable int

// Supported CQI tables.
const (
	Table64QAM  CQITable = 1 // TS 36.213 Table 7.2.3-1
	Table256QAM CQITable = 2 // TS 36.213 Table 7.2.3-2
)

// CQIFromSINR maps a wideband SINR in dB to the reported CQI (0..15) under
// the given table. CQI 0 means out of range (no transmission possible).
func CQIFromSINR(sinrDB float64, table CQITable) int {
	thr := &sinrThresh64
	if table == Table256QAM {
		thr = &sinrThresh256
	}
	cqi := 0
	for i := 1; i <= 15; i++ {
		if sinrDB >= thr[i] {
			cqi = i
		}
	}
	return cqi
}

// Efficiency returns the spectral efficiency in bits per resource element
// for the given CQI (1..15) under the given table. CQI 0 yields 0.
func Efficiency(cqi int, table CQITable) float64 {
	if cqi <= 0 || cqi > 15 {
		return 0
	}
	if table == Table256QAM {
		return cqiEff256[cqi]
	}
	return cqiEff64[cqi]
}

// MCS captures the wireless physical rate of one user on one cell: the CQI
// bucket the scheduler selected, the table in use, and the number of spatial
// streams (rank).
type MCS struct {
	CQI     int
	Table   CQITable
	Streams int
}

// BitsPerPRB returns the paper's R_w: wireless physical data rate in bits
// carried by one PRB over one subframe (1 ms).
func (m MCS) BitsPerPRB() float64 {
	s := m.Streams
	if s < 1 {
		s = 1
	}
	return Efficiency(m.CQI, m.Table) * DataREsPerPRB * float64(s)
}

// Valid reports whether the MCS supports any transmission.
func (m MCS) Valid() bool { return m.CQI >= 1 && m.CQI <= 15 }

// MCSFromSINR picks the MCS for a user at the given SINR: the reported CQI
// and, when the SINR supports it, a second spatial stream (rank 2 requires
// roughly 16 dB of SINR headroom in deployed networks).
func MCSFromSINR(sinrDB float64, table CQITable) MCS {
	streams := 1
	if sinrDB >= 16 {
		streams = 2
	}
	return MCS{CQI: CQIFromSINR(sinrDB, table), Table: table, Streams: streams}
}

// SINRFromRSSI converts a received signal strength (dBm) into a wideband
// SINR estimate (dB). The affine calibration places the paper's strong
// location (-85 dBm) at 22.5 dB (max 64-QAM CQI) and its weak location
// (-105 dBm) at 4.5 dB.
func SINRFromRSSI(rssiDBm float64) float64 {
	return (rssiDBm + 110) * 0.9
}
